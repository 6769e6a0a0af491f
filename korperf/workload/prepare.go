package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kor"
	"kor/internal/gen"
	"kor/internal/graph"
)

// graphSeed fixes the graphs: only the request streams vary with the run's
// seed, so every run of a workload serves the same graph and one prepared
// distance index serves them all.
const graphSeed = 1

// Prepared is a workload's graph on disk, ready for korserve.
type Prepared struct {
	Graph     *graph.Graph
	GraphPath string
	// IndexPath is the persistent distance index, empty unless the workload
	// is indexed.
	IndexPath string
	// IndexBuild is how long kor.WriteDistIndex took when the index was
	// built. Building is preparation: it is cached by graph fingerprint and
	// reported, never timed as set-up.
	IndexBuild time.Duration
}

// Build generates the named graph in memory.
func Build(name string) (*graph.Graph, error) {
	switch name {
	case GraphRoad:
		return gen.RoadNetwork(gen.RoadConfig{Seed: graphSeed, Nodes: 8000}), nil
	case GraphCity:
		g, _, err := gen.FlickrGraph(gen.FlickrConfig{Seed: graphSeed})
		return g, err
	default:
		return nil, fmt.Errorf("workload: unknown graph %q", name)
	}
}

// Prepare writes spec's graph, and its distance index when the workload is
// indexed, under dir. Files already there are reused when their graph
// fingerprint matches.
func Prepare(dir string, s Spec) (*Prepared, error) {
	g, err := Build(s.Graph)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fp := fmt.Sprintf("%016x", g.Fingerprint())
	p := &Prepared{Graph: g, GraphPath: filepath.Join(dir, s.Graph+"-"+fp+".korg")}
	if _, err := os.Stat(p.GraphPath); err != nil {
		if err := writeAtomic(p.GraphPath, func(tmp string) error { return kor.SaveGraph(tmp, g) }); err != nil {
			return nil, fmt.Errorf("workload: writing graph: %w", err)
		}
	}
	if !s.Indexed {
		return p, nil
	}
	p.IndexPath = filepath.Join(dir, s.Graph+"-"+fp+".kori")
	timing := p.IndexPath + ".build_s"
	b, err := os.ReadFile(timing)
	if err != nil {
		// No recorded build: build the index, even over a file a cut-short
		// preparation left behind.
		start := time.Now()
		if err := writeAtomic(p.IndexPath, func(tmp string) error {
			_, err := kor.WriteDistIndex(tmp, g, 0)
			return err
		}); err != nil {
			return nil, fmt.Errorf("workload: building distance index: %w", err)
		}
		p.IndexBuild = time.Since(start)
		if err := os.WriteFile(timing, []byte(strconv.FormatFloat(p.IndexBuild.Seconds(), 'g', -1, 64)), 0o644); err != nil {
			return nil, err
		}
		return p, nil
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return nil, fmt.Errorf("workload: reading index build time: %w", err)
	}
	p.IndexBuild = time.Duration(secs * float64(time.Second))
	return p, nil
}

// writeAtomic runs write on a temporary name next to path and renames the
// result into place, so an interrupted preparation never leaves a partial
// file that a later run would trust.
func writeAtomic(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	if err := write(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
