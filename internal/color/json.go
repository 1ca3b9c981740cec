package color

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/grid"
)

// coloringJSON is the wire form of a Coloring: the lattice dimensions plus
// the row-major cell array.  Cells are plain integer labels so palettes of
// any size round-trip (the rune-grid format of String/Parse caps at 35).
type coloringJSON struct {
	Rows  int   `json:"rows"`
	Cols  int   `json:"cols"`
	Cells []int `json:"cells"`
}

// MarshalJSON encodes the coloring as {"rows", "cols", "cells"} with
// row-major integer cells.  It is the stable wire contract used by
// simulation results, reports and checkpoints.  The bytes are those
// encoding/json produces for coloringJSON, appended into one buffer sized
// for single-digit colors.
func (c *Coloring) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 48+2*len(c.cells))
	b = append(b, `{"rows":`...)
	b = strconv.AppendInt(b, int64(c.dims.Rows), 10)
	b = append(b, `,"cols":`...)
	b = strconv.AppendInt(b, int64(c.dims.Cols), 10)
	b = append(b, `,"cells":[`...)
	for i, v := range c.cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON decodes the format produced by MarshalJSON.  Unlike
// FromRows, it accepts the degenerate 1×n layout general-graph colorings
// carry; it rejects dimension/cell-count mismatches and negative cells.
func (c *Coloring) UnmarshalJSON(b []byte) error {
	var in coloringJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.Rows < 1 || in.Cols < 1 {
		return fmt.Errorf("color: coloring dimensions %dx%d must be at least 1x1", in.Rows, in.Cols)
	}
	if in.Rows*in.Cols != len(in.Cells) {
		return fmt.Errorf("color: coloring %dx%d wants %d cells, got %d", in.Rows, in.Cols, in.Rows*in.Cols, len(in.Cells))
	}
	cells := make([]Color, len(in.Cells))
	for i, v := range in.Cells {
		if v < 0 {
			return fmt.Errorf("color: cell %d has negative color %d", i, v)
		}
		cells[i] = Color(v)
	}
	c.dims = grid.Dims{Rows: in.Rows, Cols: in.Cols}
	c.cells = cells
	return nil
}
