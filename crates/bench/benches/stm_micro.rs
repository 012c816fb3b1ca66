//! Microbenchmarks of the STM primitives themselves (real wall time, real
//! threads not required): per-operation cost of reads, writes, commits and
//! the admission gate. These guard the harness against accidental
//! slowdowns — a 2× regression here doubles every table's wall time.

use std::hint::black_box;
use votm::{QuotaMode, Votm};
use votm_bench::harness::bench;
use votm_sim::{block_on, RealHandle, Rt};
use votm_stm::{instance::run_sync, Addr, CommitPhase, TmAlgorithm, TmInstance, TxCtx};

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

/// Commits the context's open attempt, which nothing contends with.
fn commit(ctx: &mut TxCtx, inst: &TmInstance) {
    if let CommitPhase::NeedsFinish { .. } = ctx.commit_begin(inst).expect("uncontended commit") {
        ctx.commit_finish(inst);
    }
    black_box(ctx.take_work());
}

/// The `driver_tx` transactions on one reused `TxCtx`: no driver, and,
/// unlike `run_sync`, no context built per transaction. The floor the
/// driver's cost is read off against.
fn tx_ctx() {
    for algo in TmAlgorithm::ALL {
        let inst = TmInstance::new(algo, 4096);
        let mut ctx = inst.tx_ctx(0);
        bench(&format!("tx_ctx/{}/64_reads", algo.name()), || {
            ctx.begin(&inst).expect("uncontended begin");
            let mut acc = 0u64;
            for i in 0..64u32 {
                acc = acc.wrapping_add(ctx.read(&inst, Addr(i * 7 % 4096)).expect("read"));
            }
            commit(&mut ctx, &inst);
            acc
        });
        let mut i = 0u64;
        bench(&format!("tx_ctx/{}/32_writes", algo.name()), || {
            i += 1;
            ctx.begin(&inst).expect("uncontended begin");
            for k in 0..32u32 {
                ctx.write(&inst, Addr(k * 11 % 4096), i).expect("write");
            }
            commit(&mut ctx, &inst);
        });
        bench(&format!("tx_ctx/{}/rmw", algo.name()), || {
            ctx.begin(&inst).expect("uncontended begin");
            let v = ctx.read(&inst, Addr(0)).expect("read");
            ctx.write(&inst, Addr(0), v + 1).expect("write");
            commit(&mut ctx, &inst);
        });
    }
}

/// The `tx_ctx` transactions, but through `View::transact` under
/// `Rt::Real`: gate admission, the driver, the handle and the per-thread
/// descriptor included. `empty` is the driver's cost per transaction; the
/// gap to `tx_ctx` beyond it, divided by the accesses, its cost per access.
fn driver_tx() {
    let rt = Rt::Real(RealHandle::standalone(0));
    for algo in TmAlgorithm::ALL {
        let sys = Votm::builder().algo(algo).threads(2).build();
        let view = sys.create_view(4096, QuotaMode::Fixed(2));
        bench(&format!("driver_tx/{}/empty", algo.name()), || {
            block_on(view.transact(&rt, async |_| Ok(())))
        });
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
        bench(&format!("driver_tx/{}/rmw", algo.name()), || {
            block_on(view.transact(&rt, async |tx| {
                let v = tx.read(Addr(0)).await?;
                tx.write(Addr(0), v + 1).await?;
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
    tx_ctx();
    driver_tx();
    heap_alloc_free();
}
