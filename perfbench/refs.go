package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// refs.json maps workload -> part label ("irn-storm@12") -> sha256 of
// the part's rendered output, for every seed in the pool. `perfbench
// record` regenerates it; a run compares every part against it.
//
//go:embed refs.json
var refsJSON []byte

const refsPath = "perfbench/refs.json"

func loadRefs() (map[string]map[string]string, error) {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return nil, fmt.Errorf("refs.json: %v", err)
	}
	return refs, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// record runs every pool seed of the named workloads once, checks the
// parts that have a committed golden against it, and rewrites refs.json
// with the digests. It refuses to record output that contradicts a
// golden.
func record(names []string, procs int) error {
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	for _, name := range names {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		d := &runner{bin: bin, w: w, procs: procs, golden: map[string]string{}}
		got := map[string]string{}
		for s := int64(1); s <= poolSize; s++ {
			r := d.spawn(s, "", false)
			if !r.ok() {
				return fmt.Errorf("%s seed %d: %s", name, s, r.Err)
			}
			for _, p := range r.Result.Parts {
				if old, ok := refs[name][p.Label]; ok && old != p.SHA256 {
					fmt.Fprintf(os.Stderr, "perfbench: %s changed\n", p.Label)
				}
				got[p.Label] = p.SHA256
			}
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d (%.2f s)\n", name, s, r.Result.WallS)
		}
		refs[name] = got
	}
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(data, '\n'), 0o644)
}
