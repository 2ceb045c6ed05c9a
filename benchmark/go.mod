module symsim/benchmark

go 1.22

require symsim v0.0.0

replace symsim => ../
