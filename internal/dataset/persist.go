package dataset

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/textctx"
)

// fileVersion guards the on-disk format. Version 2 adds Checksum, a
// CRC32C over the words and places payload, so a corrupt file fails
// loudly at Load instead of materialising a garbage corpus; version-1
// files (no checksum) still load.
const fileVersion = 2

// filePlace is the serialisable form of one place.
type filePlace struct {
	Label   string
	X, Y    float64
	Context []int32
}

// fileFormat is the gob payload. The RDF graph is not persisted — it is
// fully determined by Config.Seed and regenerable via Generate — but the
// derived places, contexts and dictionary are, so a loaded dataset can be
// queried without regeneration.
type fileFormat struct {
	Version int
	Config  Config
	Words   []string
	Places  []filePlace
	// Checksum is a CRC32C over the canonical encoding of Words and
	// Places (see payloadCRC). Zero-valued in version-1 files, which
	// predate it and are loaded unverified.
	Checksum uint32
}

// payloadCRC hashes the dataset content — every word in ID order, every
// place's label, coordinates and context items — in a fixed byte layout,
// independent of gob's encoding details. The checksum therefore guards
// the data a corrupt snapshot would poison the corpus with, not the
// container around it (gob detects most framing damage itself).
func (ff *fileFormat) payloadCRC() uint32 {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var buf [8]byte
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU64(uint64(len(ff.Words)))
	for _, w := range ff.Words {
		io.WriteString(h, w)
		h.Write([]byte{0})
	}
	writeU64(uint64(len(ff.Places)))
	for _, p := range ff.Places {
		io.WriteString(h, p.Label)
		h.Write([]byte{0})
		writeU64(math.Float64bits(p.X))
		writeU64(math.Float64bits(p.Y))
		writeU64(uint64(len(p.Context)))
		for _, c := range p.Context {
			binary.LittleEndian.PutUint32(buf[:4], uint32(c))
			h.Write(buf[:4])
		}
	}
	return h.Sum32()
}

// Save writes the dataset to w in a self-contained binary format.
func (d *Dataset) Save(w io.Writer) error {
	ff := fileFormat{Version: fileVersion, Config: d.Config}
	ff.Words = make([]string, d.Dict.Len())
	for i := range ff.Words {
		ff.Words[i] = d.Dict.Word(textctx.ItemID(i))
	}
	ff.Places = make([]filePlace, len(d.Places))
	for i, p := range d.Places {
		fp := filePlace{Label: p.Label, X: p.Loc.X, Y: p.Loc.Y}
		for _, it := range p.Context.Items() {
			fp.Context = append(fp.Context, int32(it))
		}
		ff.Places[i] = fp
	}
	ff.Checksum = ff.payloadCRC()
	return gob.NewEncoder(w).Encode(ff)
}

// Load reads a dataset written by Save. The returned dataset has a
// rebuilt IR-tree but no RDF graph (Graph is nil); regenerate with
// Generate(d.Config) when graph access is needed. Version-2 files are
// checksum-verified: a payload whose CRC does not match fails here, so
// a corrupt snapshot can never silently become a serving corpus.
func Load(r io.Reader) (*Dataset, error) {
	var ff fileFormat
	if err := gob.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	switch ff.Version {
	case 1:
		// Pre-checksum format: nothing to verify.
	case fileVersion:
		if got := ff.payloadCRC(); got != ff.Checksum {
			return nil, fmt.Errorf("dataset: corrupt file: payload CRC %08x, recorded %08x", got, ff.Checksum)
		}
	default:
		return nil, fmt.Errorf("dataset: unsupported file version %d", ff.Version)
	}
	dict := textctx.NewDict()
	for _, w := range ff.Words {
		dict.Intern(w)
	}
	d := &Dataset{Config: ff.Config, Dict: dict}
	for _, fp := range ff.Places {
		ids := make([]textctx.ItemID, len(fp.Context))
		for j, c := range fp.Context {
			ids[j] = textctx.ItemID(c)
		}
		rec := PlaceRecord{
			Label:   fp.Label,
			Context: textctx.NewSet(ids...),
		}
		rec.Loc.X, rec.Loc.Y = fp.X, fp.Y
		d.Places = append(d.Places, rec)
	}
	idx, err := buildIndex(len(d.Places), func(i int) *PlaceRecord { return &d.Places[i] })
	if err != nil {
		return nil, err
	}
	d.Index = idx
	return d, nil
}
