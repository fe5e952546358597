(** Function inline expansion (paper step 2): call sites with high dynamic
    execution count are replaced with the callee body, turning important
    inter-function control transfers into intra-function ones. *)

open Ir

type config = {
  min_call_count : int;  (** a site must execute at least this often… *)
  min_call_fraction : float;  (** …or carry this share of all calls *)
  max_callee_insns : int;  (** never inline callees larger than this *)
  max_program_growth : float;  (** cap on total static code growth *)
  rounds : int;  (** re-profile and repeat, enabling nested inlining *)
}

val default_config : config

type report = {
  sites_inlined : int;
  insns_before : int;
  insns_after : int;
  rounds_used : int;
}

val code_increase : report -> float
(** Fractional static code-size increase — the Table 3 [code inc] column. *)

val splice : Prog.func -> Cfg.label -> Prog.func -> Prog.func
(** [splice caller site callee] inlines one call site.  Raises
    [Invalid_argument] if the block does not end in a call to [callee]. *)

val expand_once :
  config -> budget:int -> Prog.program -> Vm.Profile.t -> Prog.program * int
(** One pass in decreasing dynamic-count order; returns the number of
    sites inlined.  [budget] bounds total program instructions. *)

val profile : Prog.program -> Vm.Io.input list -> Vm.Profile.t
(** One full profile pass over the inputs ({!Vm.Profile.profile}),
    counted in the [pipeline.profile_passes] metric and timed in a
    [profile] span.  Every pass the pipeline and the inliner make goes
    through here. *)

val expand :
  ?config:config ->
  Vm.Profile.t ->
  inputs:Vm.Io.input list ->
  Prog.program * report * Vm.Profile.t option
(** [expand profile ~inputs] inlines [profile.prog] until a round inlines
    nothing or the round limit is hit.  Round 0 uses [profile]; each
    later round re-profiles the previous round's output on [inputs].
    The third result is a profile of the returned program when the last
    round inlined nothing (it is [profile] itself if no round did), and
    [None] when the round limit cut off an inlining round. *)
