package video

// Reset clears the library and drops its recycled buffers: a fresh
// library for the tests that replay one after another.
func (l *KeyframeLibrary) Reset() { l.frames, l.free = nil, nil }
