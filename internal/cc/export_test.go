package cc

// LexAll exposes the lexer to the external test package, which may
// import packages that import cc, such as the benchmark sources.
var LexAll = lexAll
