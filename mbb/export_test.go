package mbb

// Internals the external tests pin.
var TailFloors = tailFloors

const DenseAutoLimit = denseAutoLimit
