package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"time"
)

// Line renders a stats struct's exported int64 and time.Duration fields as
// space-separated Name=value pairs in declaration order, the key being the
// field's name as written and a duration printing through its String. A
// field added to the struct reaches every line printed from it.
func Line(stats any) string {
	v := reflect.ValueOf(stats)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch x := v.Field(i).Interface().(type) {
		case int64, time.Duration:
			fmt.Fprintf(&b, " %s=%v", f.Name, x)
		}
	}
	return strings.TrimPrefix(b.String(), " ")
}
