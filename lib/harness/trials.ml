(** Seeded trials: the engine under both campaigns.

    Trial [i] of a campaign is [trial i], which must depend on the
    campaign's seed and [i] alone, never on a state threaded through
    the run. That independence is what lets the same trials run either
    in-process or as {!Supervisor} jobs in isolated worker processes,
    in any completion order and resumable from a journal, and still
    agree on what trial [i] is. *)

(** Run trials [0 .. n-1] and stream each result to [on_result] as it
    arrives. Without [supervise] they run in-process, in order. With
    it, each is one {!Supervisor} job named [id_prefix-NNNN] in class
    [job_class], so a trial that wedges or crashes becomes a classified
    outcome instead of the end of the campaign; [extra] jobs ride along
    in the same run. A trial that returns [None] (nothing to try) has
    no result. Results come back in trial order, with the supervisor's
    outcomes ([[]] in-process). *)
let run ?supervise ?(extra = []) ?(on_result = fun _ -> ()) ~id_prefix
    ~job_class ~n (trial : int -> 'r option) :
    'r list * 'r option Supervisor.outcome list =
  match supervise with
  | None ->
    let results =
      List.filter_map
        (fun i ->
          let r = trial i in
          Option.iter on_result r;
          r)
        (List.init n Fun.id)
    in
    (results, [])
  | Some cfg ->
    let jobs =
      List.init n (fun i ->
          {
            Supervisor.job_id = Printf.sprintf "%s-%04d" id_prefix i;
            job_class;
            job_run = (fun ~attempt:_ -> Ok (trial i));
            job_degraded = None;
          })
    in
    let result (o : 'r option Supervisor.outcome) =
      Option.join o.Supervisor.o_payload
    in
    let outcomes =
      Supervisor.run
        ~on_outcome:(fun o -> Option.iter on_result (result o))
        cfg (jobs @ extra)
    in
    (* [Supervisor.run] returns outcomes in job order, trials first. *)
    (List.filter_map result (List.filteri (fun i _ -> i < n) outcomes), outcomes)
