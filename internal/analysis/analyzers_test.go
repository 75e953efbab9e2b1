package analysis

import "testing"

// fixturePkgs maps each fixture package under testdata/src to the import
// path it is loaded under: that of the real package it stands in for, so
// each analyzer's scoping rules apply exactly as they do in production.
var fixturePkgs = map[string]string{
	"simdet":       "hvac/internal/sim",
	"pfsfix":       "hvac/internal/core",
	"lockfix":      "hvac/internal/lockfix",
	"errfix":       "hvac/internal/errfix",
	"lockorderfix": "hvac/internal/lockorderfix",
	"gorofix":      "hvac/internal/gorofix",
	"ownerfix":     "hvac/internal/ownerfix",
	// blockguard scopes its checks to the transport package plus the core
	// server/client files.
	"blockfix": "hvac/internal/transport",
	// untrustedlen seeds its taint from length fields declared in a
	// package with the transport's import path.
	"lenfix": "hvac/internal/transport",
}

func TestSimDeterminismFixtures(t *testing.T) { fixtureTest(t, SimDeterminism, "simdet") }

func TestPFSBypassFixtures(t *testing.T) { fixtureTest(t, PFSBypass, "pfsfix") }

func TestLockSafeFixtures(t *testing.T) { fixtureTest(t, LockSafe, "lockfix") }

func TestErrDropFixtures(t *testing.T) { fixtureTest(t, ErrDrop, "errfix") }

func TestLockOrderFixtures(t *testing.T) { fixtureTest(t, LockOrder, "lockorderfix") }

func TestGoroLeakFixtures(t *testing.T) { fixtureTest(t, GoroLeak, "gorofix") }

func TestOwnerPassFixtures(t *testing.T) { fixtureTest(t, OwnerPass, "ownerfix") }

func TestBlockGuardFixtures(t *testing.T) { fixtureTest(t, BlockGuard, "blockfix") }

func TestUntrustedLenFixtures(t *testing.T) { fixtureTest(t, UntrustedLen, "lenfix") }
