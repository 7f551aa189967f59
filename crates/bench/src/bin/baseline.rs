//! Regenerates the **§8.1 baseline comparison**: the two-stage `rcnn-lite`
//! detector vs the single-shot SPP-Net on the same dataset.
//!
//! Usage: `cargo run --release -p dcd-bench --bin baseline [--quick|--full]`
//!
//! Paper reference (Li et al., §8.1): a Faster R-CNN with ResNet-50 reaches
//! accuracy 0.882 / IoU 0.668 on the same watershed — competitive accuracy
//! from a much heavier two-stage pipeline. Expected shape here: rcnn-lite is
//! in the same accuracy regime as SPP-Net while evaluating `grid²` CNN
//! forward passes per image instead of one.

use dcd_bench::{build_dataset, paper_train_config, print_table, Effort};
use dcd_core::{RcnnLite, RcnnLiteConfig};
use dcd_nn::metrics::iou;
use dcd_nn::trainer::evaluate;
use dcd_nn::{SppNet, SppNetConfig, Trainer};
use dcd_tensor::SeededRng;

fn main() {
    let effort = Effort::from_args();
    println!("effort: {effort:?}");
    let dataset = build_dataset(effort, 2022);
    println!(
        "dataset: {} train / {} test patches",
        dataset.train.len(),
        dataset.test.len()
    );

    // Single-shot SPP-Net.
    let cfg = effort.scale_config(&SppNetConfig::candidate2());
    let mut rng = SeededRng::new(7);
    let mut sppnet = SppNet::new(cfg, &mut rng);
    Trainer::new(paper_train_config(effort)).train(&mut sppnet, &dataset.train);
    let (spp_ap, _) = evaluate(&sppnet, &dataset.test, 0.5);

    // Two-stage rcnn-lite.
    let mut bl_cfg = RcnnLiteConfig::for_patch(effort.patch_size());
    bl_cfg.train = paper_train_config(effort);
    let baseline = RcnnLite::train(&dataset.train, bl_cfg, 7);
    let (bl_ap, _) = baseline.evaluate(&dataset.test, 0.3);

    // Mean IoU of baseline detections on positive patches (the §8.1 metric).
    let mut iou_sum = 0.0f32;
    let mut n_pos = 0usize;
    for s in &dataset.test {
        if let Some(gt) = s.label {
            let d = baseline.detect(&s.image);
            iou_sum += iou(&d.bbox, &gt);
            n_pos += 1;
        }
    }
    let mean_iou = if n_pos > 0 {
        iou_sum / n_pos as f32
    } else {
        0.0
    };

    print_table(
        "§8.1: single-shot SPP-Net vs two-stage rcnn-lite",
        &[
            "Detector",
            "AP",
            "CNN passes / image",
            "mean IoU (positives)",
        ],
        &[
            vec![
                "SPP-Net #2 (ours)".into(),
                format!("{:.3}", spp_ap),
                "1".into(),
                "-".into(),
            ],
            vec![
                "rcnn-lite (two-stage)".into(),
                format!("{:.3}", bl_ap),
                baseline.proposals_per_image().to_string(),
                format!("{mean_iou:.3}"),
            ],
        ],
    );
    println!("\npaper reference for the two-stage comparator: accuracy 0.882, IoU 0.668");
    println!(
        "shape check: two-stage costs {}x more CNN invocations per image",
        baseline.proposals_per_image()
    );
}
