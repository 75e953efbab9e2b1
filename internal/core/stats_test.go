package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hvac/internal/metrics"
)

// TestStatsLine holds the stats structs to being the only lists of
// counters: every field of ServerStats and ClientStats reaches the line
// hvacd and hvacc print, once, under its own name, in declaration order,
// and every live server counter reaches Stats() under the same name.
func TestStatsLine(t *testing.T) {
	for _, stats := range []any{&ServerStats{}, &ClientStats{}} {
		v := reflect.ValueOf(stats).Elem()
		t.Run(v.Type().Name(), func(t *testing.T) {
			var want []string
			for i := 0; i < v.NumField(); i++ {
				v.Field(i).SetInt(int64(1000 + i)) // a time.Duration too
				want = append(want, fmt.Sprintf("%s=%v", v.Type().Field(i).Name, v.Field(i).Interface()))
			}
			if got := strings.Fields(metrics.Line(v.Interface())); !slices.Equal(got, want) {
				t.Errorf("line %q,\nwant %q", got, want)
			}
		})
	}

	t.Run("serverCounters", func(t *testing.T) {
		pfsDir := filepath.Join(t.TempDir(), "dataset")
		writePFS(t, pfsDir, 0, 0)
		servers, _ := startCluster(t, pfsDir, 1, nil, nil)
		c := reflect.ValueOf(&servers[0].stats).Elem()
		for i := 0; i < c.NumField(); i++ {
			c.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(1000 + i))
		}
		st := reflect.ValueOf(servers[0].Stats())
		for i := 0; i < c.NumField(); i++ {
			name := c.Type().Field(i).Name
			if f := st.FieldByName(name); !f.IsValid() || f.Int() != int64(1000+i) {
				t.Errorf("serverCounters.%s = %d reads in Stats() as %v", name, 1000+i, f)
			}
		}
	})
}
