// The benchmark is a module of its own so that the repository's build
// and tests do not depend on it. Its import path sits under "precursor",
// which is what lets it import precursor/internal/... for the layer
// probes.
module precursor/benchmark

go 1.22

require precursor v0.0.0

replace precursor => ../
