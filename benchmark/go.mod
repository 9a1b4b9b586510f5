module hidestore/benchmark

go 1.22

require hidestore v0.0.0

replace hidestore => ../
