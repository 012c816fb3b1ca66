//! Microbenchmarks of the STM primitives themselves (real wall time, real
//! threads not required): per-operation cost of reads, writes, commits and
//! the admission gate. These guard the harness against accidental
//! slowdowns — a 2× regression here doubles every table's wall time.

use std::hint::black_box;
use votm::{QuotaMode, Votm};
use votm_bench::harness::bench;
use votm_sim::{block_on, RealHandle, Rt};
use votm_stm::{instance::run_sync, Addr, TmAlgorithm, TmInstance};

fn read_heavy() {
    for algo in TmAlgorithm::ALL {
        let inst = TmInstance::new(algo, 4096);
        bench(&format!("stm_read_heavy_tx/{}", algo.name()), || {
            run_sync(&inst, 0, |tx, inst| {
                let mut acc = 0u64;
                for i in 0..64u32 {
                    acc = acc.wrapping_add(tx.read(inst, Addr(i * 7 % 4096))?);
                }
                Ok(black_box(acc))
            })
        });
    }
}

fn write_heavy() {
    for algo in TmAlgorithm::ALL {
        let inst = TmInstance::new(algo, 4096);
        let mut i = 0u64;
        bench(&format!("stm_write_heavy_tx/{}", algo.name()), || {
            i += 1;
            run_sync(&inst, 0, |tx, inst| {
                for k in 0..32u32 {
                    tx.write(inst, Addr(k * 11 % 4096), i)?;
                }
                Ok(())
            })
        });
    }
}

fn counter_increment() {
    for algo in TmAlgorithm::ALL {
        let inst = TmInstance::new(algo, 16);
        bench(&format!("stm_counter_increment/{}", algo.name()), || {
            run_sync(&inst, 0, |tx, inst| {
                let v = tx.read(inst, Addr(0))?;
                tx.write(inst, Addr(0), v + 1)
            })
        });
    }
}

/// The read-heavy and write-heavy transactions above, but through
/// `View::transact` under `Rt::Real`: gate admission, the driver, the
/// handle and the per-thread descriptor included. The gap to the
/// `TxCtx`-only cases is what the driver adds per transaction.
fn driver_tx() {
    let rt = Rt::Real(RealHandle::standalone(0));
    for algo in TmAlgorithm::ALL {
        let sys = Votm::builder().algo(algo).threads(2).build();
        let view = sys.create_view(4096, QuotaMode::Fixed(2));
        bench(&format!("driver_tx/{}/64_reads", algo.name()), || {
            block_on(view.transact(&rt, async |tx| {
                let mut acc = 0u64;
                for i in 0..64u32 {
                    acc = acc.wrapping_add(tx.read(Addr(i * 7 % 4096)).await?);
                }
                Ok(black_box(acc))
            }))
        });
        let mut i = 0u64;
        bench(&format!("driver_tx/{}/32_writes", algo.name()), || {
            i += 1;
            block_on(view.transact(&rt, async |tx| {
                for k in 0..32u32 {
                    tx.write(Addr(k * 11 % 4096), i).await?;
                }
                Ok(())
            }))
        });
    }
}

fn heap_alloc_free() {
    let inst = TmInstance::new(TmAlgorithm::NOrec, 1 << 20);
    bench("heap_alloc_free_8w", || {
        let a = inst.heap().alloc_block(8).unwrap();
        inst.heap().free_block(black_box(a));
    });
}

fn main() {
    read_heavy();
    write_heavy();
    counter_increment();
    driver_tx();
    heap_alloc_free();
}
