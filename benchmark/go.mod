module openmeta/benchmark

go 1.22

require openmeta v0.0.0

replace openmeta => ../
