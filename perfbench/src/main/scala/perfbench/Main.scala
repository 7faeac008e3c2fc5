package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

final case class Metric(name: String, unit: String)

object Metric {
  val setupS = Metric("setup_s", "s")
  val queryP50 = Metric("query_p50_ms", "ms")
  val qps = Metric("queries_per_s", "1/s")
  val heapMb = Metric("heap_mb", "MB")

  /** Every per-layer metric, reported by every traced run; a layer that a
    * workload does not run reads 0.
    */
  val perLayer: Seq[Metric] = Seq(
    "graph.build_ms" -> "ms", "graph.component_ms" -> "ms", "graph.bfs_ms" -> "ms",
    "graph.bfs_parents_ms" -> "ms",
    "peeler.fpa_ms" -> "ms", "peeler.fpa_rest_ms" -> "ms", "peeler.fpa_alloc_mb" -> "MB",
    "peeler.component_nodes" -> "count", "peeler.community_nodes" -> "count",
    "peeler.touched_per_kept" -> "ratio",
    "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count",
    "graph.articulation_ms" -> "ms", "graph.articulation_calls" -> "count",
    "peeler.nca_ms" -> "ms", "peeler.nca_alloc_mb" -> "MB",
    "spark.jobs_per_query" -> "count", "spark.tasks_per_query" -> "count",
    "spark.shuffle_mb_per_query" -> "MB",
    "graphframes.bfs_ms" -> "ms", "graphframes.bfs_jobs" -> "count",
    "graphframes.degrees_ms" -> "ms", "graphframes.degrees_jobs" -> "count",
    "graphframes.layer_stats_ms" -> "ms", "graphframes.layer_stats_jobs" -> "count",
    "sparkdmcs.fpa_ms" -> "ms", "sparkdmcs.rest_ms" -> "ms",
    "sparkdmcs.max_layer" -> "layer", "sparkdmcs.chosen_layer" -> "layer",
    "graphframes.edge_df_ms" -> "ms",
  ).map { case (n, u) => Metric(n, u) }
}

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`.
  * Prints progress to stderr and, as the last line of stdout, one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`. Traced runs
  * also write their spans to `<out>/trace-<workload>-<seed>.jsonl`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val workload = opts("workload")
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toInt
    val tracer = new Tracer(opts("trace") == "1")
    val out = Files.createDirectories(Paths.get(opts("out")))
    require(seconds >= 1, "--seconds must be at least 1")
    if (workload == "spark-divergence") { SparkWorkload.divergent(seconds, out); sys.exit(0) }

    Checker.selfTest()
    val outcome = workload match {
      case "fpa-lfr100k" => Harness.run(LocalWorkloads.fpa(seed, tracer), seconds, tracer)
      case "nca-lfr2k" => Harness.run(LocalWorkloads.nca(seed, tracer), seconds, tracer)
      case "spark-lfr10k" => SparkWorkload.run(seed, seconds, tracer, out)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }
    tracer.write(out.resolve(s"trace-$workload-$seed.jsonl"))

    // the tracing overhead, against the last untraced run of this workload and seed
    val untraced = out.resolve(s"query_p50_ms-$workload-$seed.txt")
    val p50 = outcome.metrics.collectFirst { case (Metric.queryP50, v) => v }
    if (p50.nonEmpty) Files.write(untraced, p50.get.toString.getBytes(StandardCharsets.UTF_8))
    else {
      val name = outcome.querySpan + "_ms"
      for (t <- outcome.metrics.collectFirst { case (m, v) if m.name == name => v })
        if (!Files.exists(untraced)) println(s"tracing overhead: no untraced run of $workload seed $seed to compare")
        else {
          val u = new String(Files.readAllBytes(untraced), StandardCharsets.UTF_8).toDouble
          println(f"tracing overhead: traced $name p50 $t%.3f ms against untraced query_p50_ms $u%.3f ms " +
            f"(${(t / u - 1) * 100}%+.1f%%; separate runs)")
        }
    }

    val metrics = outcome.metrics.map { case (m, v) =>
      s""""${m.name}": {"value": ${if (v.isNaN || v.isInfinite) "null" else v.toString}, "unit": "${m.unit}"}"""
    }.mkString(", ")
    println(s"""{"correct": ${outcome.correct}, "attempted": ${outcome.attempted}, """ +
      s""""failed": ${outcome.failed}, "metrics": {$metrics}}""")
    System.out.flush()
    // Spark leaves non-daemon threads behind
    sys.exit(0)
  }
}
