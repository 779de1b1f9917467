package csvload

import (
	"strings"
	"testing"

	"cubefc/internal/cube"
)

const sampleCSV = `time,product,city,region,value
0,P1,C1,R1,10
0,P1,C2,R1,20
0,P2,C1,R1,30
0,P2,C2,R1,40
1,P1,C1,R1,11
1,P1,C2,R1,21
1,P2,C1,R1,31
1,P2,C2,R1,41
`

func TestParseSpec(t *testing.T) {
	specs, err := ParseSpec("product;location=city<region")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Name != "product" || len(specs[0].Levels) != 1 {
		t.Fatalf("spec 0 = %+v", specs[0])
	}
	if specs[1].Name != "location" || len(specs[1].Levels) != 2 || specs[1].Levels[1] != "region" {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
	// Unnamed hierarchical dimension takes its finest level name.
	specs, err = ParseSpec("city<region")
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Name != "city" {
		t.Fatalf("default name = %q", specs[0].Name)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{"", "  ", ";;", "a=<b"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestLoadBasic(t *testing.T) {
	specs, err := ParseSpec("product;location=city<region")
	if err != nil {
		t.Fatal(err)
	}
	dims, base, err := Load(strings.NewReader(sampleCSV), specs, Options{Period: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || len(base) != 4 {
		t.Fatalf("dims=%d base=%d", len(dims), len(base))
	}
	// Functional dependency derived from the data.
	parent, err := dims[1].Ancestor("C1", 0, 1)
	if err != nil || parent != "R1" {
		t.Fatalf("C1 parent = %q, %v", parent, err)
	}
	// Series aligned by time order.
	for _, b := range base {
		if b.Series.Len() != 2 {
			t.Fatalf("series length = %d", b.Series.Len())
		}
		if b.Series.Period != 2 {
			t.Fatal("period lost")
		}
		if b.Series.Values[1] != b.Series.Values[0]+1 {
			t.Fatalf("time ordering broken: %v", b.Series.Values)
		}
	}
	// The result feeds cube.NewGraph directly.
	g, err := cube.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || len(g.BaseIDs) != 4 {
		t.Fatalf("graph nodes=%d base=%d", g.NumNodes(), len(g.BaseIDs))
	}
}

func TestLoadNumericTimeOrdering(t *testing.T) {
	// Time keys 2, 10 must sort numerically (10 after 2).
	csvData := "time,loc,value\n10,A,2\n2,A,1\n"
	specs, _ := ParseSpec("loc")
	_, base, err := Load(strings.NewReader(csvData), specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base[0].Series.Values[0] != 1 || base[0].Series.Values[1] != 2 {
		t.Fatalf("numeric time ordering broken: %v", base[0].Series.Values)
	}
}

func TestLoadMissingObservation(t *testing.T) {
	csvData := "time,loc,value\n0,A,1\n1,A,2\n0,B,3\n"
	specs, _ := ParseSpec("loc")
	if _, _, err := Load(strings.NewReader(csvData), specs, Options{}); err == nil {
		t.Fatal("missing observation should fail without FillMissing")
	}
	_, base, err := Load(strings.NewReader(csvData), specs, Options{FillMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range base {
		if b.Members[0] == "B" && (b.Series.Values[0] != 3 || b.Series.Values[1] != 0) {
			t.Fatalf("zero fill broken: %v", b.Series.Values)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	specs, _ := ParseSpec("product;location=city<region")
	cases := map[string]string{
		"missing time column":  "t,product,city,region,value\n0,P1,C1,R1,1\n",
		"missing value column": "time,product,city,region,v\n0,P1,C1,R1,1\n",
		"missing level column": "time,product,city,value\n0,P1,C1,1\n",
		"bad value":            "time,product,city,region,value\n0,P1,C1,R1,abc\n",
		"no data rows":         "time,product,city,region,value\n",
		"inconsistent FD":      "time,product,city,region,value\n0,P1,C1,R1,1\n0,P2,C1,R2,1\n",
		"duplicate obs":        "time,product,city,region,value\n0,P1,C1,R1,1\n0,P1,C1,R1,2\n",
		"NaN value":            "time,product,city,region,value\n0,P1,C1,R1,1\n1,P1,C1,R1,NaN\n",
		"infinite value":       "time,product,city,region,value\n0,P1,C1,R1,-Inf\n",
	}
	for name, data := range cases {
		if _, _, err := Load(strings.NewReader(data), specs, Options{}); err == nil {
			t.Errorf("%s: Load should fail", name)
		}
	}
	// A non-finite value is named with its line.
	data := "time,product,city,region,value\n0,P1,C1,R1,1\n1,P1,C1,R1, +Inf\n"
	_, _, err := Load(strings.NewReader(data), specs, Options{})
	if want := `csvload: line 3: value " +Inf" is not finite`; err == nil || err.Error() != want {
		t.Errorf("got %v, want %s", err, want)
	}
}

func TestLoadRoundTripWithDatagenFormat(t *testing.T) {
	// The datagen CSV layout (time,<finest levels>,value) loads with a
	// flat spec per dimension.
	csvData := "time,purpose,state,value\n0,holiday,NSW,10\n1,holiday,NSW,12\n0,business,NSW,5\n1,business,NSW,6\n"
	specs, err := ParseSpec("purpose;state")
	if err != nil {
		t.Fatal(err)
	}
	dims, base, err := Load(strings.NewReader(csvData), specs, Options{Period: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || len(base) != 2 {
		t.Fatalf("dims=%d base=%d", len(dims), len(base))
	}
}
