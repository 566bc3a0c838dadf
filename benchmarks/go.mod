module approxcache/benchmarks

go 1.22

require approxcache v0.0.0

replace approxcache => ../
