package forecast

import (
	"testing"

	"cubefc/internal/datasets"
	"cubefc/internal/timeseries"
)

func benchSeries(b *testing.B) (*timeseries.Series, int) {
	b.Helper()
	ds := datasets.Sales(11)
	return ds.Base[0].Series, ds.Period
}

func BenchmarkFitHoltWintersCold(b *testing.B) {
	s, period := benchSeries(b)
	m := NewHoltWinters(period, Additive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitHoltWintersWarm(b *testing.B) {
	s, period := benchSeries(b)
	m := NewHoltWinters(period, Additive)
	if err := m.Fit(s); err != nil {
		b.Fatal(err)
	}
	seed := m.AppendParams(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSESCold(b *testing.B) {
	s, _ := benchSeries(b)
	m := NewSES()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitSESWarm(b *testing.B) {
	s, _ := benchSeries(b)
	m := NewSES()
	if err := m.Fit(s); err != nil {
		b.Fatal(err)
	}
	seed := m.AppendParams(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WarmStart(seed)
		if err := m.Fit(s); err != nil {
			b.Fatal(err)
		}
	}
}
