module pim/benchmarks/pimperf

go 1.22

require pim v0.0.0

replace pim => ../..
