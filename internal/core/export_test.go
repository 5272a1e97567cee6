package core

import (
	"context"

	"repro/internal/geo"
)

// MatrixScores and MatrixStep1 expose the Step-1 oracle (matrixStep1) to
// the external tests.
type MatrixScores = matrixScores

func MatrixStep1(q geo.Point, places []Place, opt ScoreOptions) (*MatrixScores, error) {
	return matrixStep1(context.Background(), q, places, opt)
}
