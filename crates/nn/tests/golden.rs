//! Golden pin of the training path: three `train_batch` steps of a tiny
//! SPP-Net with a second FC layer must reproduce recorded loss bit patterns
//! and parameter checksums exactly. Any change to the forward, backward or
//! optimizer arithmetic — including the order of a reduction — moves them.

use dcd_nn::{BBox, Sample, Sgd, SppNet, SppNetConfig, TrainConfig, Trainer};
use dcd_tensor::{SeededRng, Tensor};

/// FNV-1a over the bit patterns of a parameter's values, in storage order.
fn checksum(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Two positives with a bright blob and two noise negatives, `[1, 16, 16]`.
fn batch() -> Vec<Sample> {
    let mut rng = SeededRng::new(21);
    let mut samples = Vec::new();
    for (cy, cx) in [(5usize, 6usize), (10, 9)] {
        let mut img = Tensor::randn([1, 16, 16], 0.0, 0.2, &mut rng);
        for y in cy - 2..cy + 2 {
            for x in cx - 2..cx + 2 {
                img.set(&[0, y, x], 1.5);
            }
        }
        let bbox = BBox::new(cx as f32 / 16.0, cy as f32 / 16.0, 0.25, 0.25);
        samples.push(Sample::positive(img, bbox));
    }
    for _ in 0..2 {
        samples.push(Sample::negative(Tensor::randn(
            [1, 16, 16],
            0.0,
            0.2,
            &mut rng,
        )));
    }
    samples
}

#[test]
fn three_train_steps_match_recorded_bits() {
    let mut cfg = SppNetConfig::tiny();
    cfg.fc2 = Some(16);
    let mut model = SppNet::new(cfg, &mut SeededRng::new(17));
    let trainer = Trainer::new(TrainConfig {
        sgd: Sgd::new(0.05, 0.9, 0.0005),
        ..Default::default()
    });
    let samples = batch();
    let refs: Vec<&Sample> = samples.iter().collect();

    let losses: Vec<[u32; 3]> = (0..3)
        .map(|_| {
            let (total, obj, bx) = trainer.train_batch(&mut model, &refs);
            [total.to_bits(), obj.to_bits(), bx.to_bits()]
        })
        .collect();
    let sums: Vec<u64> = model
        .params_mut()
        .iter()
        .map(|p| checksum(p.value.data()))
        .collect();

    let expect_losses: Vec<[u32; 3]> = vec![
        [0x3f35_6502, 0x3f34_1f50, 0x3ba2_d907],
        [0x3f1f_c95f, 0x3f1e_9864, 0x3b98_7d89],
        [0x3efd_ddcd, 0x3efb_afbc, 0x3b8b_8425],
    ];
    let expect_sums: Vec<u64> = vec![
        0x99b5_98e5_21d1_3120, // conv1 w
        0xe9e9_6f44_6860_8577, // conv1 b
        0xdb65_cc44_d6e5_ca7a, // conv2 w
        0xee1e_c604_2c71_451b, // conv2 b
        0x3c45_2cde_1cd9_88cc, // conv3 w
        0x52a2_fe9c_73d2_4cd0, // conv3 b
        0x8f76_c014_25be_4c3c, // fc1 w
        0xf3f3_5bd3_f8e9_76a6, // fc1 b
        0x8c62_ff28_667c_62be, // fc2 w
        0x775c_4f9c_01a1_f6cc, // fc2 b
        0x18f3_f938_c61b_af8e, // head_obj w
        0xa4ef_38cd_033d_bb93, // head_obj b
        0x62cc_f047_55dc_ebe2, // head_box w
        0x7ffd_9223_b670_17cd, // head_box b
    ];
    assert_eq!(
        losses, expect_losses,
        "loss bits (total, obj, box) per step"
    );
    assert_eq!(sums, expect_sums, "parameter checksums in params_mut order");
}
