package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spans and counts taken by the benchmark around its calls into the engine.
  *
  * When off, `span` only runs its body. When on, every span is kept in
  * memory (id, parent, request, name, start, end) and its duration is added
  * to the samples of `<name>_ms`; counts go to `sample`. `write` dumps the
  * spans as JSON lines when the run ends, and `summary` reduces each metric
  * to one value: the median of times (span durations, `sampleTime`), the
  * mean of any other samples. A metric without samples (a layer the
  * workload does not run) reads 0.
  */
final class Tracer(val on: Boolean) {
  import Tracer.Span
  private var active = on
  private val spans = mutable.ArrayBuffer.empty[Span]
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val spanMetrics = mutable.Set.empty[String]
  private var open = -1

  /** The query the next spans belong to: its index in the timed phase, or -1
    * for set-up and untimed work.
    */
  var request: Int = -1

  /** Runs `body` with tracing off. */
  def paused[T](body: => T): T = { active = false; try body finally active = on }

  /** Runs `body` as a span; nested spans get this one as parent. */
  def span[T](name: String)(body: => T): T =
    if (!active) body
    else {
      val id = spans.length
      val parent = open
      spans += null
      open = id
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        spans(id) = Span(id, parent, request, name, t0, t1)
        open = parent
        sampleTime(name + "_ms", (t1 - t0) / 1e6)
      }
    }

  def sample(metric: String, value: Double): Unit =
    if (active) samples.getOrElseUpdate(metric, mutable.ArrayBuffer.empty) += value

  /** A per-query time; `summary` reports its median. */
  def sampleTime(metric: String, ms: Double): Unit = if (active) {
    spanMetrics += metric
    sample(metric, ms)
  }

  def samplesOf(metric: String): Seq[Double] = samples.get(metric).map(_.toSeq).getOrElse(Nil)

  /** Runs `body` and records the bytes it allocates on this thread, the GC
    * time and GC count of the JVM during it, under `<name>_alloc_mb`,
    * `jvm.gc_ms` and `jvm.gc_count`.
    */
  def measured[T](name: String)(body: => T): T =
    if (!active) body
    else {
      val a0 = Jvm.allocatedBytes(); val (gt0, gc0) = Jvm.gc()
      val r = body
      val a1 = Jvm.allocatedBytes(); val (gt1, gc1) = Jvm.gc()
      sample(name + "_alloc_mb", (a1 - a0) / 1048576.0)
      sample("jvm.gc_ms", (gt1 - gt0).toDouble)
      sample("jvm.gc_count", (gc1 - gc0).toDouble)
      r
    }

  def summary(metrics: Seq[Metric]): Seq[(Metric, Double)] = metrics.map { m =>
    val xs = samplesOf(m.name)
    val v = if (xs.isEmpty) 0.0 else if (spanMetrics(m.name)) Stats.median(xs) else xs.sum / xs.length
    (m, v)
  }

  def write(path: Path): Unit = if (on) {
    Files.createDirectories(path.getParent)
    val lines = spans.iterator.map(s =>
      s"""{"id":${s.id},"parent":${s.parent},"request":${s.request},"name":"${s.name}",""" +
        s""""start_ns":${s.start},"end_ns":${s.end}}""")
    Files.write(path, lines.toSeq.asJava, StandardCharsets.UTF_8)
  }
}

object Tracer {
  private final case class Span(id: Int, parent: Int, request: Int, name: String, start: Long, end: Long)
}

object Jvm {
  /** A progress line on stderr, stamped with the JVM's age. */
  def log(msg: String): Unit =
    Console.err.println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%.1fs] $msg")

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Total GC time (ms) and collection count over all collectors. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).sum, beans.map(_.getCollectionCount).sum)
  }

  /** Used heap in MB after two full collections. */
  def usedHeapMb(): Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / 1048576.0
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}
