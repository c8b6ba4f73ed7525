module schedroute/bench

go 1.22

require schedroute v0.0.0

replace schedroute => ../
