//go:build !unix

package cachestore

import (
	"errors"
	"os"
)

// Platforms outside unix map nothing: every lease is read through its
// descriptor, as over the mapping budget.

func mapCountLimit() int64 { return 0 }

func mapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) {}
