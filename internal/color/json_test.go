package color

import (
	"encoding/json"
	"testing"

	"repro/internal/grid"
)

// TestColoringJSONRoundTrip pins the wire form of a coloring, including the
// degenerate 1×n layout general-graph colorings carry and colors beyond the
// rune-grid cap of 35.
func TestColoringJSONRoundTrip(t *testing.T) {
	c := NewColoring(grid.MustDims(2, 3), None)
	for v := 0; v < c.N(); v++ {
		c.Set(v, Color(v*20+1)) // includes colors > 35
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rows":2,"cols":3,"cells":[1,21,41,61,81,101]}`
	if string(b) != want {
		t.Fatalf("wire form drifted:\n got %s\nwant %s", b, want)
	}
	var back Coloring
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Fatal("coloring did not round-trip")
	}

	line := &Coloring{dims: grid.Dims{Rows: 1, Cols: 4}, cells: []Color{1, 2, 1, 2}}
	b, err = json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var lineBack Coloring
	if err := json.Unmarshal(b, &lineBack); err != nil {
		t.Fatalf("1xn layout rejected: %v", err)
	}
	if !lineBack.Equal(line) {
		t.Fatal("1xn coloring did not round-trip")
	}
}

// TestColoringJSONRejectsMalformed pins strict decoding: dimension and cell
// mismatches, negative cells and non-object documents all error.
func TestColoringJSONRejectsMalformed(t *testing.T) {
	for label, doc := range map[string]string{
		"cell count mismatch": `{"rows":2,"cols":2,"cells":[1,2,3]}`,
		"zero rows":           `{"rows":0,"cols":2,"cells":[]}`,
		"negative cell":       `{"rows":1,"cols":2,"cells":[1,-2]}`,
		"not an object":       `[1,2,3]`,
	} {
		var c Coloring
		if err := json.Unmarshal([]byte(doc), &c); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
}

// FuzzColoringJSONRoundTrip requires MarshalJSON to produce the bytes
// encoding/json gives for the coloringJSON wire struct, and UnmarshalJSON
// to restore the coloring from them.
func FuzzColoringJSONRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint16(1), []byte{1, 2, 3, 4})
	f.Add(uint8(2), uint16(1), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(3), uint16(37), []byte{0, 9, 10, 255, 1, 2})
	f.Add(uint8(0), uint16(65535), []byte{7})
	f.Add(uint8(4), uint16(0), make([]byte, 64))
	f.Fuzz(func(t *testing.T, rows uint8, scale uint16, data []byte) {
		r := 1 + int(rows%8)
		cols := len(data) / r
		if cols == 0 {
			return
		}
		c := &Coloring{dims: grid.Dims{Rows: r, Cols: cols}, cells: make([]Color, r*cols)}
		wire := coloringJSON{Rows: r, Cols: cols, Cells: make([]int, r*cols)}
		for i := range c.cells {
			v := int(data[i]) * int(scale)
			c.cells[i] = Color(v)
			wire.Cells[i] = v
		}
		got, err := c.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("MarshalJSON = %s, encoding/json = %s", got, want)
		}
		var back Coloring
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatal(err)
		}
		if !back.Equal(c) || back.Dims() != c.Dims() {
			t.Fatalf("round trip changed the coloring: %s", got)
		}
	})
}
