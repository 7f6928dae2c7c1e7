package lockdiscipline_test

import (
	"path/filepath"
	"testing"

	"trajpattern/tools/analyzers/internal/checktest"
	"trajpattern/tools/analyzers/lockdiscipline"
)

func TestLockDiscipline(t *testing.T) {
	checktest.Run(t, lockdiscipline.Analyzer,
		filepath.Join("testdata", "src", "guard"), "trajpattern/internal/serve/guard")
}

func TestLockDisciplineOutsideScope(t *testing.T) {
	checktest.Run(t, lockdiscipline.Analyzer,
		filepath.Join("testdata", "src", "outside"), "trajpattern/internal/report")
}
