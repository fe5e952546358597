(* Plumbing shared by the workloads: clocks, seeded shuffles, the pass
   loop, peak memory, the traced-run span helpers and the metric record
   every workload returns. *)

(* The metric catalogue, with units.  Every untraced run prints every
   end-to-end metric and every traced run every per-layer metric, in
   this order; a layer that a workload does not exercise reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("work_norm", "ref");
    ("impact_miss_pct", "%");
  ]

let per_layer =
  [
    ("vm.profile_s", "s");
    ("placement.inline_s", "s");
    ("ir.simplify_s", "s");
    ("placement.layout_s", "s");
    ("placement.strategy_layout_s", "s");
    ("analysis.lint_s", "s");
    ("analysis.absint_s", "s");
  ]
  @ List.map (fun b -> ("placement.pipeline_s." ^ b, "s")) Workloads.Registry.names
  @ [
      ("vm.profile_minsn", "Minsn");
      ("placement.sites_inlined", "count");
      ("analysis.dataflow_iterations", "count");
      ("vm.null_minsn_per_s", "Minsn/s");
      ("vm.profiled_minsn_per_s", "Minsn/s");
    ]
  @ List.map
      (fun axis -> ("sim.simulate_s." ^ axis, "s"))
      [ "size"; "block"; "fill"; "assoc"; "prefetch" ]
  @ [
      ("sim.block_configs_per_s", "1/s");
      ("sim.decode_mblocks_per_s", "Mblocks/s");
      ("sim.accesses", "count");
      ("icache.misses", "count");
      ("sim.record_s", "s");
      ("sim.trace_stored_mb", "MB");
      ("sim.trace_ratio", "ratio");
    ]
  @ [ ("serve.p50_ms", "ms"); ("serve.tail_ms", "ms") ]
  @ List.concat_map
      (fun c -> [ ("serve." ^ c ^ "_p50_ms", "ms"); ("serve." ^ c ^ "_p99_ms", "ms") ])
      [ "hit"; "sim"; "custom"; "certified"; "lint"; "upload" ]
  @ List.map
      (fun s -> ("serve.stage_" ^ s ^ "_ms", "ms"))
      [ "admission"; "store_lookup"; "strategy_map"; "certify"; "simulate" ]
  @ [
      ("serve.batch_size_mean", "requests");
      ("experiments.memo_hit_rate", "ratio");
      ("serve.degraded_pct", "%");
      ("obs.trace_overhead_pct", "%");
      ("host.work_s", "s");
      ("host.reference_ms", "ms");
    ]

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** end-to-end metrics in an untraced run, per-layer ones in a
          traced run *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let info fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The reference kernel: a fixed piece of work, the same on every call,
   in two halves of about equal time — dependent loads and stores over
   a 512 KB table with hash-table updates and short-lived allocations,
   then a register-only xorshift loop with a data-dependent branch.
   Timed alongside the work on the 2-core shared host this was built
   on, the table half alone swung more than the compiles and the
   replays did, the loop half alone less than the replays; the two
   together followed both best.  It is the benchmark's own code and
   calls nothing in the repository, so no change to the program moves
   it; only the host's speed does.  Returns its run time in seconds. *)
let reference =
  let n = 1 lsl 16 in
  let a = Array.init n (fun i -> (i * 7919) land (n - 1)) in
  fun () ->
    let t0 = now () in
    let h = Hashtbl.create 4096 in
    let acc = ref 0 and j = ref 0 in
    for i = 0 to 750_000 do
      j := a.((!j + i) land (n - 1));
      a.(i land (n - 1)) <- (!j + i) land (n - 1);
      if i land 15 = 0 then Hashtbl.replace h (!j land 4095) (string_of_int i);
      if i land 7 = 0 then acc := !acc + List.length [ !j; i ]
    done;
    let x = ref 88172645463325252 in
    for i = 0 to 3_000_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      if !x land 3 = 0 then acc := !acc + i else acc := !acc lxor !x
    done;
    ignore (Sys.opaque_identity (!acc, Hashtbl.length h));
    now () -. t0

(* The child-process side: one kernel run per byte read from standard
   input, its time written back as one line; ends at end of input. *)
let reference_child () =
  (try
     while true do
       ignore (input_char stdin);
       Printf.printf "%.17g\n%!" (reference ())
     done
   with End_of_file -> ());
  exit 0

(* The CPUs this process may run on, from /proc/self/status; [] when
   that cannot be read. *)
let allowed_cpus () =
  let range r =
    match String.split_on_char '-' r with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> failwith r
  in
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
           | _ -> None)
  with
  | Some v -> List.concat_map range (String.split_on_char ',' v)
  | None | (exception _) -> []

(* Run [f] with a function that times the reference kernel in [lanes]
   child processes at once (this executable with [--reference-child]),
   as many as the work keeps busy, and returns their mean time.  Where
   taskset can pin them, each child gets a CPU of its own, so two never
   share a core; with one lane this process is pinned to the child's
   CPU as well, so the kernel runs where the work does.  Being other
   processes, the children never share the heap or the collector state
   of the work being measured.  They are stopped and waited for when
   [f] returns. *)
let with_reference ~lanes f =
  let exe = Sys.executable_name in
  let cpus = allowed_cpus () in
  let pinned = List.length cpus >= lanes && Sys.command "taskset -V > /dev/null 2>&1" = 0 in
  if pinned && lanes = 1 then
    ignore
      (Sys.command
         (Printf.sprintf "taskset -pc %d %d > /dev/null" (List.hd cpus) (Unix.getpid ())));
  let children =
    List.init lanes (fun i ->
        if pinned then
          Unix.open_process_args "taskset"
            [| "taskset"; "-c"; string_of_int (List.nth cpus i); exe; "--reference-child" |]
        else Unix.open_process_args exe [| exe; "--reference-child" |])
  in
  let run () =
    List.iter
      (fun (_, oc) ->
        output_char oc 'r';
        flush oc)
      children;
    mean (List.map (fun (ic, _) -> float_of_string (input_line ic)) children)
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun c -> ignore (Unix.close_process c)) children)
    (fun () -> f run)

(* Reference-kernel time run after each unit, as a share of the unit's
   time (at least one run per unit). *)
let reference_share = 0.05

type 'a timed = {
  result : 'a;  (** [keep] of the unit's last result *)
  secs : float list;  (** wall time of each run of the unit *)
}

(* Run [units] round after round, in the given order, for [seconds]: at
   least [min_rounds] rounds, then each next unit only while its median
   time so far still ends within [seconds].  Every unit starts on a
   compacted heap, and each result is passed to [keep] untimed and
   dropped, so what one unit leaves on the heap does not change the
   time or memory of the next; only [keep] of a unit's last result is
   kept.  After each unit the reference kernel runs for
   [reference_share] of the unit's time, in [lanes] child processes.

   A shared host's speed drifts by tens of percent, over seconds and
   over minutes.  Because the reference runs are spread over the run in
   proportion to the work, their mean is the host's slowness weighted
   the way the work saw it, and a time over that mean cancels most of
   the drift; that ratio is what the end-to-end time metrics report.
   Returns the units in the given order and every reference time. *)
let timed_units ?(min_rounds = 1) ~lanes ~seconds ~keep units =
  with_reference ~lanes @@ fun reference ->
  let units = Array.of_list units in
  let n = Array.length units in
  let secs = Array.make n [] and last = Array.make n None in
  let refs = ref [] in
  let rec run_references left =
    let r = reference () in
    refs := r :: !refs;
    if left > r then run_references (left -. r)
  in
  let t0 = now () in
  let rec go i =
    let k = i mod n in
    let fits () = now () -. t0 +. Stats.median secs.(k) <= seconds in
    if i / n < min_rounds || fits () then begin
      Gc.compact ();
      let r, dt = time units.(k) in
      secs.(k) <- dt :: secs.(k);
      last.(k) <- Some (keep r);
      run_references (reference_share *. dt);
      go (i + 1)
    end
  in
  go 0;
  ( Array.to_list
      (Array.mapi
         (fun k _ -> { result = Option.get last.(k); secs = List.rev secs.(k) })
         units),
    List.rev !refs )

(* One round's time: the sum over the units of each one's median. *)
let round_s ts = List.fold_left (fun acc t -> acc +. Stats.median t.secs) 0. ts

let round_info label ts refs =
  let runs = List.map (fun t -> List.length t.secs) ts in
  info "%s: %d unit runs (%d-%d per unit), round %.3f s = %.2f references; \
        reference mean %.2f ms of %d (%.2f-%.2f)"
    label (List.fold_left ( + ) 0 runs) (List.fold_left min max_int runs)
    (List.fold_left max 0 runs) (round_s ts)
    (round_s ts /. mean refs)
    (1000. *. mean refs) (List.length refs)
    (1000. *. List.fold_left min infinity refs)
    (1000. *. List.fold_left max 0. refs)

(* Set-up times of [count] fresh processes, one after the other, each
   running this executable with [--setup-only 1] for [workload]: a set-up
   that fills lazy caches is paid again only by a new process. *)
let setup_in_children ~workload count =
  let exe = Sys.executable_name in
  List.init count (fun _ ->
      let ic =
        Unix.open_process_args_in exe
          [| exe; "--workload"; workload; "--seed"; "0"; "--seconds"; "1";
             "--trace"; "0"; "--setup-only"; "1" |]
      in
      let out = In_channel.input_all ic in
      match (Unix.close_process_in ic, float_of_string_opt (String.trim out)) with
      | Unix.WEXITED 0, Some s -> s
      | _ -> failwith ("set-up in a child process failed: " ^ out))

(* Peak resident set of a process ("self" or a pid), in MB; 0 when the
   process has already exited. *)
let peak_rss_mb who =
  let path = Printf.sprintf "/proc/%s/status" who in
  match
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  with
  | Some line -> Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None | (exception Sys_error _) -> 0.

(* The benchmark's own span around one call into a layer's public
   interface; recorded only in a traced run. *)
let span ?attrs stage f = Obs.Span.with_ ?attrs ~stage:("perfbench." ^ stage) f

(* Run [f] with spans and metrics on, returning its result and the
   spans it completed, oldest first. *)
let traced f =
  Gc.compact ();
  Obs.Span.reset ();
  Obs.Metrics.reset ();
  Obs.Span.set_enabled true;
  Obs.Metrics.set_enabled true;
  let finish () =
    Obs.Span.set_enabled false;
    Obs.Metrics.set_enabled false
  in
  let r = Fun.protect ~finally:finish f in
  (r, Obs.Span.events ())

let to_stats (e : Obs.Span.event) =
  {
    Stats.name = e.Obs.Span.name;
    start = e.start_us /. 1e6;
    dur = e.dur_us /. 1e6;
    depth = e.depth;
  }

(* Self time per layer metric: [key] names the metric a span belongs
   to, by its name and attributes; unnamed spans count toward their
   nearest named ancestor. *)
let attribute ~key events =
  let evs = Array.of_list events in
  Stats.attribute ~key:(fun i -> key evs.(i)) (List.map to_stats events)

let sum_of keys totals =
  List.fold_left
    (fun acc (k, v) -> if List.mem k keys then acc +. v else acc)
    0. totals

let pct part whole = if whole > 0. then 100. *. part /. whole else 0.

(* Tail latency by the highest-percentile rule; the maximum when too few
   samples leave ten beyond any percentile above the median. *)
let tail_ms label xs =
  match Stats.tail xs with
  | Some t ->
      info "%s: p%.4g of %d samples (%d beyond) = %.3f ms" label t.Stats.pct t.n t.beyond
        t.value;
      t.value
  | None ->
      info "%s: %d samples, maximum reported" label (List.length xs);
      List.fold_left Float.max 0. xs
