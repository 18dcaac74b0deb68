module wfsql/bench

go 1.22

require wfsql v0.0.0

replace wfsql => ../
