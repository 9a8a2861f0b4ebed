package datagen

import (
	"strings"
	"testing"

	"fudj/internal/text"
	"fudj/internal/types"
)

func TestDeterminism(t *testing.T) {
	a := Wildfires(7, 100)
	b := Wildfires(7, 100)
	c := Wildfires(8, 100)
	if len(a.Records) != 100 || len(b.Records) != 100 {
		t.Fatal("wrong cardinality")
	}
	for i := range a.Records {
		for j := range a.Records[i] {
			if !a.Records[i][j].Equal(b.Records[i][j]) {
				t.Fatalf("same seed diverged at record %d", i)
			}
		}
	}
	diff := false
	for i := range a.Records {
		if !a.Records[i][1].Equal(c.Records[i][1]) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestSchemasMatchRecords(t *testing.T) {
	sets := []*Dataset{
		Wildfires(1, 50), Parks(2, 50), NYCTaxi(3, 50), AmazonReview(4, 50),
	}
	for _, ds := range sets {
		if len(ds.Records) != 50 {
			t.Errorf("%s: %d records", ds.Name, len(ds.Records))
		}
		for i, rec := range ds.Records {
			if len(rec) != ds.Schema.Len() {
				t.Fatalf("%s record %d has %d fields, schema %d", ds.Name, i, len(rec), ds.Schema.Len())
			}
			for j, f := range ds.Schema.Fields {
				if rec[j].Kind() != f.Kind {
					t.Fatalf("%s record %d field %s: kind %v, want %v", ds.Name, i, f.Name, rec[j].Kind(), f.Kind)
				}
			}
		}
		if ds.SizeBytes() <= 0 {
			t.Errorf("%s: SizeBytes = %d", ds.Name, ds.SizeBytes())
		}
		if !strings.Contains(ds.String(), ds.Name) {
			t.Errorf("%s: String() = %q", ds.Name, ds.String())
		}
	}
}

func TestWildfiresClustered(t *testing.T) {
	ds := Wildfires(5, 2000)
	// Clustered data: the average pairwise distance of a sample should
	// be well below the uniform expectation (~0.52 * World).
	var sum float64
	count := 0
	for i := 0; i < 200; i += 2 {
		p1 := ds.Records[i][1].Point()
		p2 := ds.Records[i+1][1].Point()
		sum += p1.Distance(p2)
		count++
	}
	avg := sum / float64(count)
	if avg >= 0.52*World {
		t.Errorf("average pairwise distance %.1f suggests no clustering", avg)
	}
}

func TestParksHeavyTail(t *testing.T) {
	ds := Parks(6, 2000)
	var max, sum float64
	for _, rec := range ds.Records {
		a := rec[1].Polygon().MBR().Area()
		sum += a
		if a > max {
			max = a
		}
	}
	mean := sum / float64(len(ds.Records))
	if max < 10*mean {
		t.Errorf("max area %.1f vs mean %.1f: no heavy tail", max, mean)
	}
	// Polygons must be valid (>=3 vertices, nonempty MBR).
	for i, rec := range ds.Records {
		p := rec[1].Polygon()
		if len(p.Ring) < 3 || p.MBR().IsEmpty() {
			t.Fatalf("park %d has invalid polygon", i)
		}
	}
}

func TestNYCTaxiRushHours(t *testing.T) {
	ds := NYCTaxi(7, 5000)
	rush, total := 0, 0
	for _, rec := range ds.Records {
		iv := rec[3].Interval()
		if !iv.Valid() || iv.Duration() <= 0 {
			t.Fatal("invalid ride interval")
		}
		minute := iv.Start % dayTicks
		if (minute >= 7*60 && minute <= 9*60) || (minute >= 17*60 && minute <= 19*60) {
			rush++
		}
		total++
	}
	// Rush windows cover 1/6 of the day; bursts should push well past that.
	if float64(rush)/float64(total) < 0.3 {
		t.Errorf("rush-hour fraction %.2f too low for burst pattern", float64(rush)/float64(total))
	}
	// Vendor values are 1 or 2.
	for _, rec := range ds.Records[:100] {
		v := rec[1].Int64()
		if v != 1 && v != 2 {
			t.Fatalf("vendor = %d", v)
		}
	}
}

func TestAmazonReviewZipf(t *testing.T) {
	ds := AmazonReview(8, 5000)
	counts := map[string]int64{}
	for _, rec := range ds.Records {
		for _, tok := range text.Tokenize(rec[2].Str()) {
			counts[tok]++
		}
	}
	if len(counts) < 100 {
		t.Fatalf("vocabulary too small: %d", len(counts))
	}
	// Zipf: the most common token should dominate the median token.
	var max int64
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 50 {
		t.Errorf("top token count %d: no frequency skew", max)
	}
	// Ratings skew toward 5.
	var fives, total int64
	for _, rec := range ds.Records {
		if rec[1].Int64() == 5 {
			fives++
		}
		total++
	}
	if float64(fives)/float64(total) < 0.25 {
		t.Errorf("5-star fraction %.2f too low", float64(fives)/float64(total))
	}
}

func TestTrajectories(t *testing.T) {
	ds := Trajectories(13, 500)
	if len(ds.Records) != 500 || ds.KeyType != "LineString" {
		t.Fatalf("dataset = %v", ds)
	}
	for i, rec := range ds.Records {
		ls := rec[2].LineString()
		if len(ls.Points) < 2 {
			t.Fatalf("trajectory %d too short", i)
		}
		for _, p := range ls.Points {
			if p.X < 0 || p.X > World || p.Y < 0 || p.Y > World {
				t.Fatalf("trajectory %d leaves the world: %v", i, p)
			}
		}
		if c := rec[1].Int64(); c != 1 && c != 2 {
			t.Fatalf("class = %d", c)
		}
	}
	// Clustering: some pairs must approach closely, or the trajectory
	// join workload would be trivially empty.
	close := 0
	for i := 0; i < 100; i++ {
		a := ds.Records[i][2].LineString()
		b := ds.Records[i+100][2].LineString()
		if a.WithinDistance(b, 5) {
			close++
		}
	}
	if close == 0 {
		t.Error("no close trajectory pairs in the sample")
	}
}

func TestAmazonReviewHasNearDuplicates(t *testing.T) {
	ds := AmazonReview(9, 3000)
	// Count exact duplicate texts as a lower bound on near-duplicates;
	// the generator copies ~20% of reviews, half unmodified.
	seen := map[string]bool{}
	dups := 0
	for _, rec := range ds.Records {
		s := rec[2].Str()
		if seen[s] {
			dups++
		}
		seen[s] = true
	}
	if dups < len(ds.Records)/20 {
		t.Errorf("only %d duplicate reviews in %d; high-threshold joins would be empty", dups, len(ds.Records))
	}
}

func TestRecordsSurviveWireRoundTrip(t *testing.T) {
	for _, ds := range []*Dataset{Wildfires(1, 20), Parks(2, 20), NYCTaxi(3, 20), AmazonReview(4, 20)} {
		got, err := types.DecodeBatch(types.EncodeBatch(ds.Records), nil)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		for i := range ds.Records {
			for j := range ds.Records[i] {
				if !got[i][j].Equal(ds.Records[i][j]) {
					t.Fatalf("%s record %d field %d mismatch", ds.Name, i, j)
				}
			}
		}
	}
}
