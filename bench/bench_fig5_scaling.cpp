// Figure 5: epoch time when scaling to multiple GPUs (1..16, two per
// machine) with proportionally scaled effective batch size, SAGE (15,10,5).
//
// REAL rows: the in-process cluster trainer (real ring all-reduce across
// replica threads, halo features over the modelled interconnect) on a
// scaled dataset, with the global batch scaled by the node count so the
// effective batch grows as in the paper — validating the distributed
// *mechanics*; on one core the wall clock cannot show parallel speedup.
// SIMULATED rows: the calibrated cluster simulator on the paper-testbed
// profile, reproducing the scaling curves (larger graphs scale better;
// 4.5x-8x at 16 GPUs).
#include "bench_common.h"
#include "dist/cluster/cluster_trainer.h"
#include "graph/dataset.h"
#include "sim/pipeline_model.h"

int main() {
  using namespace salient;
  using namespace salient::benchutil;
  const double scale = env_scale();

  heading("Figure 5 (paper): 16-GPU speedups 4.45x (arxiv) .. 8.05x (papers)");

  heading("Figure 5 (REAL cluster mechanics, this machine, products-sim "
          "scaled)");
  {
    Dataset ds = generate_dataset(preset_config("products-sim",
                                                0.1 * scale));
    TablePrinter t({"nodes", "epoch", "steps", "loss", "in sync",
                    "remote MB"});
    for (const int nodes : {1, 2, 4}) {
      dist::ClusterConfig cfg;
      cfg.partition.num_nodes = nodes;
      cfg.model.in_channels = ds.feature_dim;
      cfg.model.hidden_channels = 32;
      cfg.model.out_channels = ds.num_classes;
      cfg.model.num_layers = 3;
      cfg.batch_size = 128 * nodes;  // per-node batch 128
      cfg.fanouts = {15, 10, 5};
      dist::ClusterTrainer trainer(ds, cfg);
      const auto r = trainer.train_epoch(0);
      t.add_row({std::to_string(nodes), fmt(r.wall_seconds, 2) + "s",
                 std::to_string(r.num_steps), fmt(r.mean_loss, 3),
                 trainer.replicas_in_sync() ? "yes" : "NO",
                 fmt(static_cast<double>(r.remote_feature_bytes) / 1e6, 2)});
    }
    t.print();
  }

  heading("Figure 5 (SIMULATED, paper testbed, full-scale workloads)");
  {
    TablePrinter t({"GPUs", "arxiv", "products", "papers", "papers speedup"});
    const sim::HwProfile hw;
    double papers_base = 0;
    for (const int gpus : {1, 2, 4, 8, 16}) {
      std::vector<std::string> row{std::to_string(gpus)};
      double papers_t = 0;
      for (const char* name : {"arxiv", "products", "papers"}) {
        const auto r = sim::simulate_epoch(sim::paper_workload(name), hw,
                                           sim::SystemOptions::salient(), 20,
                                           gpus);
        row.push_back(fmt(r.epoch_seconds, 2) + "s");
        if (std::string(name) == "papers") papers_t = r.epoch_seconds;
      }
      if (gpus == 1) papers_base = papers_t;
      row.push_back(fmt(papers_base / papers_t, 2) + "x");
      t.add_row(std::move(row));
    }
    t.print();
  }
  return 0;
}
