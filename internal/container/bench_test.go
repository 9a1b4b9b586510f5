package container

import (
	"math/rand"
	"testing"

	"hidestore/internal/fp"
)

func benchContainer(b *testing.B, chunkSize int) *Container {
	b.Helper()
	c := NewWithCapacity(1, DefaultCapacity)
	rng := rand.New(rand.NewSource(1))
	for c.Free() > chunkSize {
		data := make([]byte, chunkSize)
		rng.Read(data)
		if err := c.Add(fp.Of(data), data); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkMarshal(b *testing.B) {
	c := benchContainer(b, 4096)
	b.SetBytes(int64(c.DataSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	c := benchContainer(b, 4096)
	buf, err := c.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	f := fp.Of(data)
	b.SetBytes(4096)
	b.ResetTimer()
	c := NewWithCapacity(1, DefaultCapacity)
	for i := 0; i < b.N; i++ {
		if !c.HasRoom(len(data)) {
			c = NewWithCapacity(1, DefaultCapacity)
		}
		f[0], f[1] = byte(i), byte(i>>8) // vary the key
		if err := c.Add(f, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	c := benchContainer(b, 4096)
	fps := c.Fingerprints()
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.View(fps[i%len(fps)]); err != nil {
			b.Fatal(err)
		}
	}
}
