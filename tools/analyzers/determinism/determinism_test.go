package determinism_test

import (
	"path/filepath"
	"testing"

	"trajpattern/tools/analyzers/determinism"
	"trajpattern/tools/analyzers/internal/checktest"
)

func TestDeterminism(t *testing.T) {
	checktest.Run(t, determinism.Analyzer,
		filepath.Join("testdata", "src", "core"), "trajpattern/internal/core")
}

func TestDeterminismIngestPackage(t *testing.T) {
	checktest.Run(t, determinism.Analyzer,
		filepath.Join("testdata", "src", "ingest"), "trajpattern/internal/ingest")
}

func TestDeterminismOutsideScope(t *testing.T) {
	checktest.Run(t, determinism.Analyzer,
		filepath.Join("testdata", "src", "outside"), "trajpattern/internal/cli")
}
