module thermostat/bench

go 1.22

require thermostat v0.0.0

replace thermostat => ../
