package dynamo

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
)

// constructionDigest hashes the seed list and the cells of a construction:
// the two parts a run's initial configuration is made of.
func constructionDigest(c *Construction) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range c.Seed {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte{0xff})
	for _, x := range c.Coloring.Cells() {
		h.Write([]byte{byte(x)})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestMinimumMatchesRecordedDigests pins the Seed and Coloring Minimum
// builds on every torus for palettes of 4..8 colors: squares of side 3..40,
// 128, 256 and 512, plus rectangles for both serpentinus orientations.  The
// digests in testdata/minimum_digests.txt were recorded from the
// map-based seed builder and padding check; "error" marks a size the
// construction rejects or finds no padding for (for example 4 colors on
// the mesh unless a side is a multiple of three, which also runs the
// SolvePadding fallback, as does cordalis n = 5 with fewer than 6 colors).
func TestMinimumMatchesRecordedDigests(t *testing.T) {
	f, err := os.Open("testdata/minimum_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]grid.Kind{}
	for _, k := range []grid.Kind{grid.KindToroidalMesh, grid.KindTorusCordalis, grid.KindTorusSerpentinus} {
		kinds[k.String()] = k
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 5 {
			t.Fatalf("malformed line %q", sc.Text())
		}
		kind, ok := kinds[fields[0]]
		if !ok {
			t.Fatalf("unknown topology %q", fields[0])
		}
		var nums [3]int
		for i := range nums {
			if nums[i], err = strconv.Atoi(fields[1+i]); err != nil {
				t.Fatal(err)
			}
		}
		m, n, k := nums[0], nums[1], nums[2]
		got := "error"
		if c, err := Minimum(kind, m, n, 1, color.MustPalette(k)); err == nil {
			got = constructionDigest(c)
		}
		if got != fields[4] {
			t.Errorf("%v %dx%d with %d colors: digest %s, recorded %s", kind, m, n, k, got, fields[4])
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 735 {
		t.Fatalf("read %d recorded digests, want 735", lines)
	}
}
