package cube_test

import (
	"strings"
	"testing"

	"cubefc/internal/cube"
	"cubefc/internal/datasets"
)

// TestLookupOracle holds the coordinate index to the keys and coordinates the
// skeleton renders: on every node of five cube shapes, LookupID(KeyOf(id))
// and LookupCoord(CoordOf(id)) return id, also with any value at an ALL cell;
// an unknown member or level, a malformed key, a value holding the key
// separator and a wrong arity resolve to nothing; and no lookup allocates.
func TestLookupOracle(t *testing.T) {
	for _, c := range []struct {
		name string
		ds   *datasets.Dataset
	}{
		{"tourism", datasets.Tourism(1)},
		{"gen quick scale", datasets.GenX(1, 2000)},
		{"count-table cube", datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{32, 4}, {16, 2}}})},
		{"3-level hierarchy", datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{24, 6, 2}, {5}}})},
		{"3 dimensions", datasets.GenCube(1, datasets.CubeGenOptions{DimCards: [][]int{{6, 2}, {4, 2}, {3}}})},
	} {
		g, err := c.ds.Graph()
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]bool, g.NumNodes())
		for id := range g.NumNodes() {
			key, coord := g.KeyOf(id), g.CoordOf(id)
			keys[key] = true
			if got, ok := g.LookupID([]byte(key)); !ok || got != id {
				t.Fatalf("%s: LookupID(%q) = %d, %v; want %d", c.name, key, got, ok, id)
			}
			if got, ok := g.LookupCoord(coord); !ok || got != id {
				t.Fatalf("%s: LookupCoord(%v) = %d, %v; want %d", c.name, coord, got, ok, id)
			}
			for d := range coord {
				if coord[d].IsAll(&g.Dims[d]) {
					coord[d].Value = "any value"
				}
			}
			if got, ok := g.LookupCoord(coord); !ok || got != id {
				t.Fatalf("%s: LookupCoord(%v) with valued ALL cells = %d, %v; want %d", c.name, coord, got, ok, id)
			}
		}
		if len(keys) != g.NumNodes() {
			t.Fatalf("%s: %d distinct keys for %d nodes", c.name, len(keys), g.NumNodes())
		}
		D := len(g.Dims)
		if got, ok := g.LookupID([]byte(strings.Repeat("*|", D-1) + "*")); !ok || got != g.TopID {
			t.Fatalf("%s: the all-ALL key resolves to %d, %v; want the top %d", c.name, got, ok, g.TopID)
		}

		base := g.BaseIDs[len(g.BaseIDs)/2]
		key, coord := g.KeyOf(base), g.CoordOf(base)
		first, rest, _ := strings.Cut(key, "|")
		level, _, _ := strings.Cut(first, "=")
		unknownMember := append(cube.Coord{{Level: 0, Value: "no such member"}}, coord[1:]...)
		for _, bad := range []string{
			join(level+"=no such member", rest),
			join("no_such_level="+coord[0].Value, rest),
			join(level, rest),
			join("*="+coord[0].Value, rest),
			join("", rest),
			"",
			key + "|*",
			strings.Repeat("*|", D),
		} {
			if id, ok := g.LookupID([]byte(bad)); ok {
				t.Errorf("%s: LookupID(%q) resolved to %d", c.name, bad, id)
			}
		}
		if D > 1 {
			short := key[:strings.LastIndexByte(key, '|')]
			if id, ok := g.LookupID([]byte(short)); ok {
				t.Errorf("%s: LookupID(%q), one part short, resolved to %d", c.name, short, id)
			}
		}
		for _, bad := range []cube.Coord{
			unknownMember,
			append(cube.Coord{{Level: 0, Value: coord[0].Value + "|" + rest}}, coord[1:]...),
			coord[1:],
			append(coord[:D:D], cube.Cell{}),
		} {
			if id, ok := g.LookupCoord(bad); ok {
				t.Errorf("%s: LookupCoord(%v) resolved to %d", c.name, bad, id)
			}
		}

		keyBytes := []byte(key)
		if n := testing.AllocsPerRun(100, func() {
			g.LookupID(keyBytes)
			g.LookupCoord(coord)
			g.LookupCoord(unknownMember)
		}); n != 0 {
			t.Errorf("%s: a lookup allocates %v objects, want 0", c.name, n)
		}
	}
}

// join joins a key's first part and the rest, as KeyOf renders them.
func join(first, rest string) string {
	if rest == "" {
		return first
	}
	return first + "|" + rest
}
