module mfc/benchmark

go 1.22

require mfc v0.0.0

replace mfc => ../
