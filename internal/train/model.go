// Package train simulates distributed data-parallel deep-learning
// training (§II-A/B): per-epoch globally-shuffled sample streams consumed
// in batches by one rank per training process, compute overlapped with
// prefetching (PyTorch-DataLoader style), ring-allreduce gradient
// synchronisation after each iteration, and a samples-seen accuracy model
// for the Fig. 14 study.
//
// The file I/O of every rank flows through a vfs.FS, so the identical
// training loop runs against GPFS, XFS-on-NVMe or HVAC — the paper's
// portability property, and the property that makes the comparisons fair.
package train

import (
	"math"
	"time"

	"hvac/internal/dataset"
)

// Model describes one of the four evaluated applications (§IV-A2). The
// throughput figures are per V100 GPU with the batch sizes the paper uses,
// reconstructed from the MLPerf-HPC and vendor model zoos; the shapes of
// the reproduction depend on their ratios to the I/O rates, not on exact
// values.
type Model struct {
	// Name identifies the model in reports.
	Name string
	// ParamsMillion is the trainable parameter count, in millions
	// (gradient bytes = 4 * params for fp32 allreduce).
	ParamsMillion float64
	// SamplesPerSecPerGPU is sustained training throughput per V100.
	SamplesPerSecPerGPU float64
	// Data is the dataset the paper trains this model on.
	Data dataset.Spec
	// Top1Max and Top5Max are the asymptotic accuracies of the
	// samples-seen accuracy model.
	Top1Max, Top5Max float64
	// TauEpochs controls convergence speed: accuracy approaches its
	// asymptote as 1-exp(-epochsSeen/TauEpochs).
	TauEpochs float64
}

// ResNet50 is the 228-layer, 25.6M-parameter network of §IV-A2, trained
// on ImageNet21K with PyTorch + Horovod.
func ResNet50() Model {
	return Model{
		Name:                "resnet50",
		ParamsMillion:       25.6,
		SamplesPerSecPerGPU: 360,
		Data:                dataset.ImageNet21K(),
		Top1Max:             0.47, Top5Max: 0.77, TauEpochs: 18,
	}
}

// TResNetM is the TResNet_M ImageNet21K model.
func TResNetM() Model {
	return Model{
		Name:                "tresnet_m",
		ParamsMillion:       31.1,
		SamplesPerSecPerGPU: 290,
		Data:                dataset.ImageNet21K(),
		Top1Max:             0.49, Top5Max: 0.79, TauEpochs: 16,
	}
}

// CosmoFlow is the 3D-CNN cosmology model from MLPerf-HPC v0.5 (the paper
// cites its ~51K parameters), trained on cosmoUniverse.
func CosmoFlow() Model {
	return Model{
		Name:                "cosmoflow",
		ParamsMillion:       0.051,
		SamplesPerSecPerGPU: 110,
		Data:                dataset.CosmoUniverse(),
		Top1Max:             0.90, Top5Max: 0.99, TauEpochs: 12,
	}
}

// DeepCAM is the Gordon-Bell climate-segmentation model from MLPerf-HPC,
// training on 768x1152x16 samples.
func DeepCAM() Model {
	return Model{
		Name:                "deepcam",
		ParamsMillion:       56.0,
		SamplesPerSecPerGPU: 16,
		Data:                dataset.DeepCAMClimate(),
		Top1Max:             0.82, Top5Max: 0.97, TauEpochs: 10,
	}
}

// GradientBytes is the gradient payload exchanged per iteration (fp16
// compression, as Horovod deployments on Summit use).
func (m Model) GradientBytes() int64 { return int64(m.ParamsMillion * 1e6 * 2) }

// ComputeTime is the busy-GPU time for a batch on gpus GPUs.
func (m Model) ComputeTime(batch, gpus int) time.Duration {
	if gpus < 1 {
		gpus = 1
	}
	sec := float64(batch) / (m.SamplesPerSecPerGPU * float64(gpus))
	return time.Duration(sec * 1e9)
}

// AllreduceTime models the gradient allreduce across world ranks over the
// EDR fabric: 2(W-1)/W passes of the payload at the effective bandwidth
// of NCCL's hierarchical (tree/ring hybrid) algorithm, plus a logarithmic
// latency term.
func (m Model) AllreduceTime(world int) time.Duration {
	if world <= 1 {
		return 0
	}
	const effBW = 20e9 // effective allreduce bandwidth on dual-rail EDR, B/s
	const stepLat = 12 * time.Microsecond
	w := float64(world)
	bytes := float64(m.GradientBytes())
	transfer := 2 * (w - 1) / w * bytes / effBW
	steps := 0
	for p := 1; p < world; p *= 2 {
		steps++
	}
	return time.Duration(transfer*1e9) + time.Duration(2*steps)*stepLat
}

// Accuracy returns the (top1, top5) accuracy after seeing samplesSeen
// training samples — a saturating curve that depends only on samples seen
// and the model, never on which file system delivered the bytes. This is
// the formal content of the paper's Fig. 14 claim: HVAC preserves the
// shuffle, so at equal iteration counts accuracies are equal.
func (m Model) Accuracy(samplesSeen float64) (top1, top5 float64) {
	epochs := samplesSeen / float64(m.Data.TrainFiles)
	f := 1 - math.Exp(-epochs/m.TauEpochs)
	return m.Top1Max * f, m.Top5Max * f
}
