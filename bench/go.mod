module redundancy/bench

go 1.22

require redundancy v0.0.0

replace redundancy => ../
