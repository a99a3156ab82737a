package main

import "fixture/user"

// Exported is in a main package, which nothing can import.
func Exported() {}

func main() { user.Run() }
