// Package dataset describes the training datasets of the paper's
// evaluation (§IV-A3) and generates synthetic equivalents: HVAC never
// inspects file contents, so only the name set and the size distribution
// matter to I/O behaviour. Sizes are drawn from a log-normal fitted to the
// published mean, reproducing the "random sizes of files" that perturb the
// Fig. 15 load balance.
package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"hvac/internal/sim"
	"hvac/internal/vfs"
)

// Spec describes a dataset.
type Spec struct {
	// Name identifies the dataset in reports.
	Name string
	// TrainFiles and ValFiles are the published sample counts.
	TrainFiles int
	ValFiles   int
	// MeanFileSize is the published average sample size in bytes.
	MeanFileSize int64
	// SizeSigma is the sigma of the underlying normal of the log-normal
	// size distribution; 0 means every file has exactly MeanFileSize.
	SizeSigma float64
	// PathPrefix is the PFS directory the files live under.
	PathPrefix string
}

// ImageNet21K is the dataset used for ResNet50 and TResNet_M: 11,797,632
// training samples across 11,221 classes, 1.1 TB total (§IV-A3). The
// paper's stated ~163 KB average is inconsistent with count x total
// (163 KB x 11.8M = 1.9 TB); we honour the file count and the total
// (=> ~96 KB mean), since the count drives metadata load, the total
// drives bandwidth load, and staging must fit the 1.6 TB node NVMe for
// the XFS-on-NVMe baseline to exist at all.
func ImageNet21K() Spec {
	return Spec{
		Name:         "imagenet21k",
		TrainFiles:   11_797_632,
		ValFiles:     561_052,
		MeanFileSize: 96 << 10,
		SizeSigma:    0.55,
		PathPrefix:   "/gpfs/alpine/imagenet21k",
	}
}

// CosmoUniverse is the CosmoFlow dataset: 524,288 training TFRecord
// samples, 65,536 validation, 1.3 TB total => ~2.5 MB per sample.
func CosmoUniverse() Spec {
	return Spec{
		Name:         "cosmouniverse",
		TrainFiles:   524_288,
		ValFiles:     65_536,
		MeanFileSize: 2_600_000,
		SizeSigma:    0.10,
		PathPrefix:   "/gpfs/alpine/cosmouniverse",
	}
}

// DeepCAMClimate reconstructs the climate-segmentation dataset DeepCAM
// trains on: 768x1152-pixel, 16-channel samples (§IV-A2), far larger than
// ImageNet files. The paper does not tabulate this set; counts follow the
// MLPerf-HPC climate benchmark, sizes from the stated sample geometry.
func DeepCAMClimate() Spec {
	return Spec{
		Name:         "deepcam-climate",
		TrainFiles:   121_266,
		ValFiles:     15_158,
		MeanFileSize: 10_000_000,
		SizeSigma:    0.05,
		PathPrefix:   "/gpfs/alpine/deepcam",
	}
}

// Scale returns a proportionally shrunken copy (at least one file), used
// by the scaled benchmark runs; the scale factor is recorded in the name.
func (s Spec) Scale(factor float64) Spec {
	if factor <= 0 || factor > 1 {
		panic("dataset: scale factor must be in (0, 1]")
	}
	if factor == 1 {
		return s
	}
	out := s
	out.Name = fmt.Sprintf("%s@%.4g", s.Name, factor)
	out.TrainFiles = maxInt(1, int(float64(s.TrainFiles)*factor))
	out.ValFiles = maxInt(1, int(float64(s.ValFiles)*factor))
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TotalTrainBytes estimates the training set's size.
func (s Spec) TotalTrainBytes() int64 {
	return int64(s.TrainFiles) * s.MeanFileSize
}

// TrainPath returns the i-th training file's path.
func (s Spec) TrainPath(i int) string {
	return fmt.Sprintf("%s/train/%07d.rec", s.PathPrefix, i)
}

// ValPath returns the i-th validation file's path.
func (s Spec) ValPath(i int) string {
	return fmt.Sprintf("%s/val/%07d.rec", s.PathPrefix, i)
}

// size draws the i-th file's size deterministically from the spec's
// distribution (seeded per spec name, independent of call order).
func (s Spec) size(rng *sim.RNG) int64 {
	if s.SizeSigma == 0 {
		return s.MeanFileSize
	}
	// For a log-normal, mean = exp(mu + sigma^2/2); solve mu for the
	// published mean.
	mu := math.Log(float64(s.MeanFileSize)) - s.SizeSigma*s.SizeSigma/2
	sz := int64(rng.LogNormal(mu, s.SizeSigma))
	if sz < 1024 {
		sz = 1024
	}
	return sz
}

func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Build populates a namespace with the training files (and optionally the
// validation files) of the spec. Deterministic for a given spec.
func (s Spec) Build(ns *vfs.Namespace, includeVal bool) {
	rng := sim.NewRNG(seedFor(s.Name))
	for i := 0; i < s.TrainFiles; i++ {
		ns.Add(s.TrainPath(i), s.size(rng))
	}
	if includeVal {
		for i := 0; i < s.ValFiles; i++ {
			ns.Add(s.ValPath(i), s.size(rng))
		}
	}
}

// Namespace builds and returns a fresh namespace with the training files.
func (s Spec) Namespace() *vfs.Namespace {
	ns := vfs.NewNamespace()
	s.Build(ns, false)
	return ns
}

// Materialize writes real files with the spec's size distribution under
// dir for real-mode runs, capping the total at maxBytes (0 = no cap).
// It returns the created paths.
func (s Spec) Materialize(dir string, maxBytes int64) ([]string, error) {
	rng := sim.NewRNG(seedFor(s.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var total int64
	var paths []string
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	for i := 0; i < s.TrainFiles; i++ {
		size := s.size(rng)
		if maxBytes > 0 && total+size > maxBytes {
			break
		}
		p := filepath.Join(dir, fmt.Sprintf("%07d.rec", i))
		f, err := os.Create(p)
		if err != nil {
			return paths, err
		}
		remaining := size
		for remaining > 0 {
			n := int64(len(buf))
			if n > remaining {
				n = remaining
			}
			if _, err := f.Write(buf[:n]); err != nil {
				_ = f.Close() // the write failure is the error to report
				return paths, err
			}
			remaining -= n
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		total += size
		paths = append(paths, p)
	}
	return paths, nil
}
