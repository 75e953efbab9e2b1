package analysis

import "testing"

// fixturePkgs maps each fixture package under testdata/src to the import
// path it is loaded under: that of the real package it stands in for, so
// each analyzer's scoping rules apply exactly as they do in production.
var fixturePkgs = map[string]string{
	"simdet":  "hvac/internal/sim",
	"pfsfix":  "hvac/internal/core",
	"lockfix": "hvac/internal/lockfix",
	"errfix":  "hvac/internal/errfix",
}

func TestSimDeterminismFixtures(t *testing.T) { fixtureTest(t, SimDeterminism, "simdet") }

func TestPFSBypassFixtures(t *testing.T) { fixtureTest(t, PFSBypass, "pfsfix") }

func TestLockSafeFixtures(t *testing.T) { fixtureTest(t, LockSafe, "lockfix") }

func TestErrDropFixtures(t *testing.T) { fixtureTest(t, ErrDrop, "errfix") }
