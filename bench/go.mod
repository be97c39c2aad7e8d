module buffalo/bench

go 1.22

require buffalo v0.0.0

replace buffalo => ../
