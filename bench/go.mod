module deta/bench

go 1.22

require deta v0.0.0

replace deta => ../
