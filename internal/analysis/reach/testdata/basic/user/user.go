package user

import "fixture/lib"

func Run() float64 {
	lib.UsedByCode()
	sq := lib.Square{Side: 1}
	_ = lib.Describe(sq)
	return lib.Total([]lib.Shape{sq})
}
