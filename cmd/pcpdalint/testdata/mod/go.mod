module pcpda

go 1.22
