package reach_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/reach"
)

func TestFixtureDiagnostics(t *testing.T) {
	analysistest.Run(t, "testdata/basic", reach.New())
}
