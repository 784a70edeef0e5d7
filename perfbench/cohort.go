package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"odpsim/internal/scenario"
)

// cohort tags a result with everything that changes host timings without
// changing the program: two results are comparable only when every tag
// matches.
type cohort struct {
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	Shards     int    `json:"shards"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	ConfigHash string `json:"config_hash"`
}

// cohortFor describes a run of w on this host with the given run length.
// The config hash covers w's resolved scenario specs, the seed pool, the
// ceilings and the run length, so editing a registered scenario's size
// changes it too.
func cohortFor(w workload, procs int, seconds int) (cohort, error) {
	base, err := w.scenarios()
	if err != nil {
		return cohort{}, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s pool=%d registered=%v rss=%d wall=%d seconds=%d\n",
		w.name, poolSize, w.registered, memCeilingMB, wallCeilingS, seconds)
	shards := 0
	for _, sc := range base {
		spec, err := scenario.SaveSpec(sc)
		if err != nil {
			return cohort{}, err
		}
		h.Write(spec)
		shards = max(shards, sc.Shards)
	}
	return cohort{
		Workload:   w.name,
		GOMAXPROCS: procs,
		Jobs:       procs,
		Shards:     shards,
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		ConfigHash: hex.EncodeToString(h.Sum(nil))[:16],
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// mismatch lists the tags on which two cohorts differ.
func (c cohort) mismatch(o cohort) []string {
	tags := []struct {
		name string
		a, b any
	}{
		{"workload", c.Workload, o.Workload},
		{"gomaxprocs", c.GOMAXPROCS, o.GOMAXPROCS},
		{"jobs", c.Jobs, o.Jobs},
		{"shards", c.Shards, o.Shards},
		{"nproc", c.NProc, o.NProc},
		{"cpu_model", c.CPUModel, o.CPUModel},
		{"go_version", c.GoVersion, o.GoVersion},
		{"config_hash", c.ConfigHash, o.ConfigHash},
	}
	var out []string
	for _, t := range tags {
		if t.a != t.b {
			out = append(out, fmt.Sprintf("%s %v != %v", t.name, t.a, t.b))
		}
	}
	return out
}

// compare prints the metric medians of two run artifacts side by side,
// or "not comparable" with the differing tags when their cohorts differ.
func compare(oldPath, newPath string) (string, error) {
	a, err := readArtifact(oldPath)
	if err != nil {
		return "", err
	}
	b, err := readArtifact(newPath)
	if err != nil {
		return "", err
	}
	return compareArtifacts(a, b), nil
}

func readArtifact(path string) (artifact, error) {
	var a artifact
	data, err := os.ReadFile(path)
	if err != nil {
		return a, err
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("%s: %v", path, err)
	}
	return a, nil
}

func compareArtifacts(a, b artifact) string {
	if diff := a.Cohort.mismatch(b.Cohort); len(diff) > 0 {
		return "not comparable: " + strings.Join(diff, "; ") + "\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %14s %14s %9s\n", "metric", "old median", "new median", "change")
	for _, k := range sortedKeys(a.Metrics) {
		nb, ok := b.Metrics[k]
		if !ok {
			continue
		}
		oa := a.Metrics[k].Median
		change := "-"
		if oa != 0 {
			change = fmt.Sprintf("%+.1f%%", (nb.Median/oa-1)*100)
		}
		fmt.Fprintf(&sb, "%-24s %14.6g %14.6g %9s\n", k, oa, nb.Median, change)
	}
	return sb.String()
}
