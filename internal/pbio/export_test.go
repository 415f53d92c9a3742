package pbio

// Need returns what the pre-pass counts for a generic decode of data: the
// words and the text bytes of its block.
func Need(f *Format, data []byte) (words, text int) { return f.compiled().need(data, 0) }

// DecodeWithin decodes data as Format.Decode does, but from a block of the
// given words and text bytes instead of the ones Need counts.
func DecodeWithin(f *Format, data []byte, words, text int) (Record, error) {
	return f.compiled().fill(data, goRecord{}, words, text)
}
