package cubefc_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"cubefc"
)

// buildCube assembles a small product × city→region cube through the
// public API only.
func buildCube(t testing.TB, seed int64) *cubefc.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	location, err := cubefc.NewHierarchy("location",
		[]string{"city", "region"},
		[]map[string]string{{"C1": "R1", "C2": "R1", "C3": "R2", "C4": "R2"}})
	if err != nil {
		t.Fatal(err)
	}
	dims := []cubefc.Dimension{cubefc.NewDimension("product", "product"), location}
	var base []cubefc.BaseSeries
	for _, p := range []string{"P1", "P2"} {
		for _, c := range []string{"C1", "C2", "C3", "C4"} {
			vals := make([]float64, 36)
			level := 40 + 30*rng.Float64()
			for i := range vals {
				season := 1 + 0.2*math.Sin(2*math.Pi*float64(i%12)/12)
				vals[i] = level * season * (1 + 0.04*rng.NormFloat64())
			}
			base = append(base, cubefc.BaseSeries{Members: []string{p, c}, Series: cubefc.NewSeries(vals, 12)})
		}
	}
	g, err := cubefc.NewGraph(dims, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPublicNewGraphRejects: what the one graph constructor refuses at the
// facade — a base entry with no series (it used to be a nil dereference)
// and two base entries with the same members (they used to be summed).
func TestPublicNewGraphRejects(t *testing.T) {
	dims := []cubefc.Dimension{cubefc.NewDimension("product", "product")}
	ok := cubefc.BaseSeries{Members: []string{"P1"}, Series: cubefc.NewSeries([]float64{1, 2}, 1)}
	for name, base := range map[string][]cubefc.BaseSeries{
		"no series":      {ok, {Members: []string{"P2"}}},
		"no series at 0": {{Members: []string{"P2"}}, ok},
		"repeated":       {ok, {Members: []string{"P1"}, Series: cubefc.NewSeries([]float64{3, 4}, 1)}},
	} {
		if _, err := cubefc.NewGraph(dims, base); err == nil {
			t.Errorf("%s: NewGraph accepted it", name)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g := buildCube(t, 1)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Error() <= 0 || cfg.Error() >= 1 {
		t.Fatalf("overall error = %v", cfg.Error())
	}
	db, err := cubefc.OpenDB(g, cfg, cubefc.DBOptions{StepDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT time, SUM(x) FROM facts WHERE region = 'R1' GROUP BY time AS OF now() + '2 hours'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Forecast {
		t.Fatalf("result = %+v", res)
	}
}

func TestPublicSaveLoad(t *testing.T) {
	g := buildCube(t, 2)
	cfg, err := cubefc.Advise(g, cubefc.AdvisorOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cubefc.SaveConfiguration(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := cubefc.LoadConfiguration(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumModels() != cfg.NumModels() {
		t.Fatal("model count changed across save/load")
	}
}

func TestPublicBaselines(t *testing.T) {
	g := buildCube(t, 3)
	for name, f := range map[string]func(*cubefc.Graph, cubefc.BaselineOptions) (*cubefc.Configuration, error){
		"direct": cubefc.Direct, "bottom-up": cubefc.BottomUp,
		"top-down": cubefc.TopDown, "combine": cubefc.Combine,
		"combine-wls": cubefc.CombineWLS, "greedy": cubefc.Greedy,
	} {
		cfg, err := f(g, cubefc.BaselineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicStepwiseAdvisor(t *testing.T) {
	g := buildCube(t, 4)
	adv, err := cubefc.NewAdvisor(g, cubefc.AdvisorOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := adv.Step()
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done || steps > 200 {
			break
		}
	}
	if steps == 0 || adv.Configuration().NumModels() < 1 {
		t.Fatal("stepwise advisor made no progress")
	}
}
