package classify

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// CVResult aggregates a repeated k-fold cross validation of one backend,
// the paper's evaluation protocol ("We run a five-fold cross validation
// ten times, and each time the dataset is randomly shuffled"). The golden
// E3 and A6 tests pin its numbers on the default corpus.
type CVResult struct {
	Backend     string  // backend name the result belongs to
	Accuracy    float64 // micro-averaged: correct / total over all folds and rounds
	StdDev      float64 // standard deviation of per-round accuracies
	MinFeatures int     // smallest Model.Size() of any fold's model
	MaxFeatures int     // largest Model.Size() of any fold's model
	PerClass    map[string]ClassMetrics
	// Confusion[actual][predicted] counts over all rounds.
	Confusion map[string]map[string]int
	Rounds    int
	Folds     int
}

// ClassMetrics are one class's precision and recall over the whole CV.
type ClassMetrics struct {
	Precision float64
	Recall    float64
	Support   int
}

// CrossValidate runs `rounds` repetitions of k-fold cross validation of
// one backend with per-round shuffles driven by seed.
func CrossValidate(b Backend, examples []Example, k, rounds int, seed int64) CVResult {
	if k < 2 || len(examples) < k {
		return CVResult{Backend: b.Name()}
	}
	rng := rand.New(rand.NewSource(seed))
	res := CVResult{
		Backend:     b.Name(),
		MinFeatures: 1 << 30,
		PerClass:    map[string]ClassMetrics{},
		Confusion:   map[string]map[string]int{},
		Rounds:      rounds,
		Folds:       k,
	}
	correct, total := 0, 0
	tp := map[string]int{}      // class → true positives
	predN := map[string]int{}   // class → predicted count
	actualN := map[string]int{} // class → actual count
	var roundAccs []float64

	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	for r := 0; r < rounds; r++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		roundCorrect, roundTotal := 0, 0
		for fold := 0; fold < k; fold++ {
			var train, test []Example
			for pos, ei := range idx {
				if pos%k == fold {
					test = append(test, examples[ei])
				} else {
					train = append(train, examples[ei])
				}
			}
			model := b.Train(train)
			if sz := model.Size(); sz < res.MinFeatures {
				res.MinFeatures = sz
			}
			if sz := model.Size(); sz > res.MaxFeatures {
				res.MaxFeatures = sz
			}
			for _, e := range test {
				pred := model.Predict(e.Instance)
				total++
				roundTotal++
				predN[pred]++
				actualN[e.Class]++
				if res.Confusion[e.Class] == nil {
					res.Confusion[e.Class] = map[string]int{}
				}
				res.Confusion[e.Class][pred]++
				if pred == e.Class {
					correct++
					roundCorrect++
					tp[e.Class]++
				}
			}
		}
		if roundTotal > 0 {
			roundAccs = append(roundAccs, float64(roundCorrect)/float64(roundTotal))
		}
	}
	if total > 0 {
		res.Accuracy = float64(correct) / float64(total)
	}
	res.StdDev = stddev(roundAccs)
	for c := range actualN {
		m := ClassMetrics{Support: actualN[c] / max(rounds, 1)}
		if predN[c] > 0 {
			m.Precision = float64(tp[c]) / float64(predN[c])
		}
		if actualN[c] > 0 {
			m.Recall = float64(tp[c]) / float64(actualN[c])
		}
		res.PerClass[c] = m
	}
	if res.MinFeatures == 1<<30 {
		res.MinFeatures = 0
	}
	return res
}

// stddev is the population standard deviation.
func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return math.Sqrt(v / float64(len(xs)))
}

// ConfusionString renders the confusion matrix with classes sorted.
func (r CVResult) ConfusionString() string {
	classes := make([]string, 0, len(r.Confusion))
	for c := range r.Confusion {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "actual\\pred")
	for _, c := range classes {
		fmt.Fprintf(&b, " %8s", c)
	}
	b.WriteByte('\n')
	for _, a := range classes {
		fmt.Fprintf(&b, "%-10s", a)
		for _, p := range classes {
			fmt.Fprintf(&b, " %8d", r.Confusion[a][p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the CV result as a short report.
func (r CVResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-fold CV × %d rounds (%s): accuracy (micro P=R) %.1f%% (±%.1f across rounds), model size %d–%d\n",
		r.Folds, r.Rounds, r.Backend, 100*r.Accuracy, 100*r.StdDev, r.MinFeatures, r.MaxFeatures)
	classes := make([]string, 0, len(r.PerClass))
	for c := range r.PerClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		m := r.PerClass[c]
		fmt.Fprintf(&b, "  %-10s P=%.1f%% R=%.1f%% (n=%d)\n", c, 100*m.Precision, 100*m.Recall, m.Support)
	}
	return b.String()
}
