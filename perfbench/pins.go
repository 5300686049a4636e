package main

// pinKey names a (scale, seed) whose reference outputs are pinned.
type pinKey struct {
	scale string
	seed  uint64
}

// pinnedDigests are the SHA-256 digests of the core.Summarize JSON, the v3
// snapshot and the lint column at the default seed and the held-out seed.
// Seed 1 is the default configuration, whose digests equal those of analyze
// -json, scangen -format v3 and analyze -lint-out. Seed 9 has no CLI
// equivalent (its scan seed is 15); its digests are those of the resident
// reference build. Every run at a pinned seed checks its reference build
// against them, so no version of the code can become its own reference.
var pinnedDigests = map[pinKey]map[string]string{
	{"default", 1}: {
		"summary": "b07b81c7137b9e8b84e08f74b80d18a5f4fa9d60345d2237f5a471a511562f86",
		"v3":      "95d1447236b59d917cb350de6618f70bd4d33e0f50ca3137b9e44f2ce2b82582",
		"lintcol": "1a5dd977c1aa194c359b28ea9810749976e14c92dd096b60a0672c9fba51863f",
	},
	{"default", 9}: {
		"summary": "61df747508ecc5f23ef05d09e376293a5317beeb70f2d161fab3ec044cf6ac7e",
		"v3":      "2c2d54eda8a1e2384b4c3ad67b6938181094cd9de72e2699a0380ecd2b31a4b8",
		"lintcol": "d1aa17ae01f46195cf82c04179eae4e27d356864d8a5d4ae8f3a0fb2bfd5edb9",
	},
}
