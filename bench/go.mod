module dlm/bench

go 1.22

require dlm v0.0.0

replace dlm => ../
