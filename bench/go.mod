module cubefc/bench

go 1.22

require cubefc v0.0.0

replace cubefc => ../
