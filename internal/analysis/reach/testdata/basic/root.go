// Package fixture is the module root: its exported API is exempt.
package fixture

// API is importable by other modules, so nothing here must call it.
func API() {}
