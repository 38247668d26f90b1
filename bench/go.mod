module sealedbottle/bench

go 1.24

require sealedbottle v0.0.0

replace sealedbottle => ../
