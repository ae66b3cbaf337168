package stattest

// SkewedValues lets the external service tests draw the same value
// distribution as the in-process ones.
var SkewedValues = skewedValues
