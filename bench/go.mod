module palirria/bench

go 1.22

require palirria v0.0.0

replace palirria => ../
