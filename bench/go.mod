// The loop benchmark is a module of its own so that it builds and runs
// without touching the parent module's files; the module path sits under
// repro/ so it may import repro/internal/... through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
