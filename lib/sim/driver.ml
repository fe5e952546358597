(* Trace-driven simulation driver.

   Replays a recorded block trace, expanded through an address map, into
   cache configurations, tracking the paper's metrics:

   - miss ratio and memory-traffic ratio (from the cache simulator);
   - avg.exec: mean consecutive instructions used from a cache miss to a
     taken branch or the next miss (Table 8);
   - avg.fetch: mean 4-byte entities transferred per miss (Table 8);
   - effective access time under the three refill timing policies.

   Two engines share these definitions:
   - [simulate] is the word-granular reference: every instruction fetch
     goes through [Icache.Cache.access] one at a time;
   - [simulate_many] is the block-granular fast path: the trace is
     walked ONCE, each executed block becomes a single
     [Icache.Cache.access_run] call per configuration, and all
     configurations' caches, timers and run bookkeeping advance in the
     same pass.  Its results are bit-identical to the reference
     (property-tested in test/test_fast_sim.ml).

   The fast path walks the stored trace as a block [source]
   ([Trace.source]). *)

type source = (int -> Ir.Cfg.label -> unit) -> unit

type result = {
  config : Icache.Config.t;
  accesses : int;
  misses : int;
  words_fetched : int;
  miss_ratio : float;
  traffic_ratio : float;
  avg_fetch_words : float;
  avg_exec_insns : float;
  eat_blocking : float; (* effective access time, cycles per fetch *)
  eat_streaming : float;
  eat_streaming_partial : float;
}

(* Telemetry: per-configuration cache counters, labelled with the
   configuration's human description, accumulated across every
   simulation (reference and fast engines alike). *)
let record_metrics (results : result list) =
  if Obs.Metrics.enabled () then
    List.iter
      (fun r ->
        let d = Icache.Config.describe r.config in
        Obs.Metrics.incr ~by:r.accesses
          (Obs.Metrics.counter ("sim.accesses{" ^ d ^ "}"));
        Obs.Metrics.incr ~by:r.misses
          (Obs.Metrics.counter ("sim.misses{" ^ d ^ "}"));
        Obs.Metrics.incr ~by:r.words_fetched
          (Obs.Metrics.counter ("sim.words_fetched{" ^ d ^ "}")))
      results

let simulate ?(timing_model = Icache.Timing.default_model)
    (config : Icache.Config.t) (map : Placement.Address_map.t)
    (trace : Trace.t) : result =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:[ ("engine", "reference"); ("config", Icache.Config.describe config) ]
  @@ fun () ->
  let cache = Icache.Cache.create config in
  let words_per_block = Icache.Config.words_per_block config in
  let timers =
    List.map
      (fun policy -> Icache.Timing.create ~model:timing_model policy)
      [
        Icache.Timing.Blocking;
        Icache.Timing.Streaming;
        Icache.Timing.Streaming_partial;
      ]
  in
  (* Run bookkeeping: a "run" starts at a miss and extends over the
     consecutive sequential fetches that follow it. *)
  let prev_addr = ref min_int in
  let run_open = ref false in
  let run_len = ref 0 in
  let run_word = ref 0 in
  let run_fetched = ref 0 in
  let runs_sum = ref 0 in
  let runs_count = ref 0 in
  let close_run () =
    if !run_open then begin
      runs_sum := !runs_sum + !run_len;
      incr runs_count;
      List.iter
        (fun t ->
          Icache.Timing.on_miss t ~words_per_block ~word_in_block:!run_word
            ~run_words:(!run_len - 1) ~fetched_words:!run_fetched)
        timers;
      run_open := false
    end
  in
  let fetch addr =
    let outcome = Icache.Cache.access cache addr in
    let sequential = addr = !prev_addr + Icache.Config.word_bytes in
    prev_addr := addr;
    if outcome.Icache.Cache.miss then begin
      close_run ();
      run_open := true;
      run_len := 1;
      run_word := outcome.Icache.Cache.word_in_block;
      run_fetched := outcome.Icache.Cache.fetched_words
    end
    else begin
      List.iter Icache.Timing.on_hit timers;
      if !run_open then begin
        if sequential then incr run_len else close_run ()
      end
    end
  in
  let addr_of = map.Placement.Address_map.block_addr in
  let words_of = map.Placement.Address_map.block_words in
  Trace.iter_blocks
    (fun fid label ->
      let base = addr_of.(fid).(label) in
      let words = words_of.(fid).(label) in
      for k = 0 to words - 1 do
        fetch (base + (k * Ir.Insn.bytes_per_insn))
      done)
    trace;
  close_run ();
  let eat = function
    | [ b; s; p ] ->
      ( Icache.Timing.effective_access_time b,
        Icache.Timing.effective_access_time s,
        Icache.Timing.effective_access_time p )
    | ts ->
      Ir.Diag.error ~stage:Ir.Diag.Simulation
        "expected the 3 refill-policy timers (blocking, streaming, \
         partial), found %d"
        (List.length ts)
  in
  let eat_blocking, eat_streaming, eat_streaming_partial = eat timers in
  let r =
    {
      config;
      accesses = Icache.Cache.accesses cache;
      misses = Icache.Cache.misses cache;
      words_fetched = Icache.Cache.words_fetched cache;
      miss_ratio = Icache.Cache.miss_ratio cache;
      traffic_ratio = Icache.Cache.traffic_ratio cache;
      avg_fetch_words = Icache.Cache.avg_fetch_words cache;
      avg_exec_insns =
        (if !runs_count = 0 then 0.
         else float_of_int !runs_sum /. float_of_int !runs_count);
      eat_blocking;
      eat_streaming;
      eat_streaming_partial;
    }
  in
  record_metrics [ r ];
  r

(* ------------------------------------------------------------------ *)
(* Block-granular, single-pass, multi-configuration engine             *)
(* ------------------------------------------------------------------ *)

(* Per-configuration state carried across the single trace walk.  The run
   bookkeeping mirrors the reference engine exactly: a run starts at a
   miss and extends over the consecutive sequential fetches that follow
   it; it closes at the next miss, at a non-sequential hit, or at the end
   of the trace. *)
type state = {
  s_config : Icache.Config.t;
  cache : Icache.Cache.t;
  words_per_block : int;
  timers : Icache.Timing.t list; (* blocking, streaming, streaming_partial *)
  mutable prev_addr : int; (* address of the last fetched word *)
  mutable run_open : bool;
  mutable run_len : int;
  mutable run_word : int;
  mutable run_fetched : int;
  mutable runs_sum : int;
  mutable runs_count : int;
  mutable next_at : int; (* words of the current block already accounted *)
  mutable block_seq : bool; (* current block fall-through-entered? *)
}

let close_run st =
  if st.run_open then begin
    st.runs_sum <- st.runs_sum + st.run_len;
    st.runs_count <- st.runs_count + 1;
    List.iter
      (fun t ->
        Icache.Timing.on_miss t ~words_per_block:st.words_per_block
          ~word_in_block:st.run_word ~run_words:(st.run_len - 1)
          ~fetched_words:st.run_fetched)
      st.timers;
    st.run_open <- false
  end

(* Account [n] consecutive hit fetches.  Within a block every fetch after
   the first is sequential by construction, so only the first of the [n]
   can be non-sequential — and a non-sequential hit closes the run
   without extending it, after which the remaining hits are no-ops. *)
let apply_hits st n ~first_seq =
  if st.run_open then
    if first_seq then st.run_len <- st.run_len + n else close_run st

let result_of st =
  close_run st;
  let cache = st.cache in
  let hits = Icache.Cache.accesses cache - Icache.Cache.misses cache in
  List.iter (fun t -> Icache.Timing.on_hits t hits) st.timers;
  let eat = function
    | [ b; s; p ] ->
      ( Icache.Timing.effective_access_time b,
        Icache.Timing.effective_access_time s,
        Icache.Timing.effective_access_time p )
    | ts ->
      Ir.Diag.error ~stage:Ir.Diag.Simulation
        "expected the 3 refill-policy timers (blocking, streaming, \
         partial), found %d"
        (List.length ts)
  in
  let eat_blocking, eat_streaming, eat_streaming_partial = eat st.timers in
  {
    config = st.s_config;
    accesses = Icache.Cache.accesses cache;
    misses = Icache.Cache.misses cache;
    words_fetched = Icache.Cache.words_fetched cache;
    miss_ratio = Icache.Cache.miss_ratio cache;
    traffic_ratio = Icache.Cache.traffic_ratio cache;
    avg_fetch_words = Icache.Cache.avg_fetch_words cache;
    avg_exec_insns =
      (if st.runs_count = 0 then 0.
       else float_of_int st.runs_sum /. float_of_int st.runs_count);
    eat_blocking;
    eat_streaming;
    eat_streaming_partial;
  }

let simulate_source_serial ?(timing_model = Icache.Timing.default_model)
    configs (map : Placement.Address_map.t) (source : source) : result list =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:
      [
        ("engine", "single-pass");
        ("configs", string_of_int (List.length configs));
      ]
  @@ fun () ->
  let states =
    List.map
      (fun config ->
        {
          s_config = config;
          cache = Icache.Cache.create config;
          words_per_block = Icache.Config.words_per_block config;
          timers =
            List.map
              (fun policy -> Icache.Timing.create ~model:timing_model policy)
              [
                Icache.Timing.Blocking;
                Icache.Timing.Streaming;
                Icache.Timing.Streaming_partial;
              ];
          prev_addr = min_int;
          run_open = false;
          run_len = 0;
          run_word = 0;
          run_fetched = 0;
          runs_sum = 0;
          runs_count = 0;
          next_at = 0;
          block_seq = false;
        })
      configs
  in
  let states_arr = Array.of_list states in
  let nstates = Array.length states_arr in
  let addr_of = map.Placement.Address_map.block_addr in
  let words_of = map.Placement.Address_map.block_words in
  source
    (fun fid label ->
      let base = addr_of.(fid).(label) in
      let words = words_of.(fid).(label) in
      if words > 0 then
        for i = 0 to nstates - 1 do
          let st = states_arr.(i) in
          st.block_seq <- base = st.prev_addr + Icache.Config.word_bytes;
          st.next_at <- 0;
          Icache.Cache.access_run st.cache ~addr:base ~words
            ~on_miss:(fun ~at ~word_in_block ~fetched_words ->
              let gap = at - st.next_at in
              if gap > 0 then
                apply_hits st gap ~first_seq:(st.next_at > 0 || st.block_seq);
              close_run st;
              st.run_open <- true;
              st.run_len <- 1;
              st.run_word <- word_in_block;
              st.run_fetched <- fetched_words;
              st.next_at <- at + 1);
          let tail = words - st.next_at in
          if tail > 0 then
            apply_hits st tail ~first_seq:(st.next_at > 0 || st.block_seq);
          st.prev_addr <- base + ((words - 1) * Icache.Config.word_bytes)
        done);
  let results = List.map result_of states in
  record_metrics results;
  results

(* Split [xs] into [k] contiguous runs whose lengths differ by at most
   one, longer runs first — concatenating the runs rebuilds [xs]. *)
let partition k xs =
  let n = List.length xs in
  let rec go i rest =
    if i = k then []
    else begin
      let len = (n / k) + if i < n mod k then 1 else 0 in
      let rec take len acc rest =
        if len = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: rest -> take (len - 1) (x :: acc) rest
      in
      let run, rest = take len [] rest in
      run :: go (i + 1) rest
    end
  in
  go 0 xs

let simulate_many ?timing_model configs map trace =
  let source = Trace.source trace in
  match Placement.Pool.default () with
  | Some pool
    when Placement.Pool.lanes pool > 1
         && List.compare_length_with configs 2 >= 0 ->
    (* Each configuration's cache state is independent, so a contiguous
       partition of the config list simulated per-chunk and concatenated
       in order is bit-identical to the serial sweep; only the source
       walk cost is shared.  The chunk count matches the lane count:
       re-walking the trace is the dominant cost, so finer chunks would
       walk it more times for no balance win. *)
    Obs.Span.with_ ~stage:"simulate"
      ~attrs:
        [
          ("engine", "parallel");
          ("configs", string_of_int (List.length configs));
          ("lanes", string_of_int (Placement.Pool.lanes pool));
        ]
    @@ fun () ->
    let k = min (Placement.Pool.lanes pool) (List.length configs) in
    List.concat
      (Placement.Pool.map pool
         (fun chunk -> simulate_source_serial ?timing_model chunk map source)
         (partition k configs))
  | _ -> simulate_source_serial ?timing_model configs map source
