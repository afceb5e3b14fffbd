// The benchmark is a module of its own so it builds from its own
// directory; the path keeps the repro/ prefix, which is what lets it
// import repro/internal/... through the replace below.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
