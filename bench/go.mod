module parlap/bench

go 1.22

require parlap v0.0.0

replace parlap => ../
