module Table2 = struct
  let render comparisons =
    let row (c : Flow.comparison) =
      let i = c.Flow.init and f = c.Flow.final in
      [
        c.design_name;
        Table.fi c.instances;
        Table.f1 c.alpha;
        Table.fi i.Flow.dm1;
        Table.fi f.Flow.dm1;
        Table.pct (float_of_int i.Flow.dm1) (float_of_int f.Flow.dm1);
        Table.f1 i.m1_wl_um;
        Table.f1 f.m1_wl_um;
        Table.pct i.m1_wl_um f.m1_wl_um;
        Table.fi i.via12;
        Table.fi f.via12;
        Table.pct (float_of_int i.via12) (float_of_int f.via12);
        Table.f1 i.hpwl_um;
        Table.f1 f.hpwl_um;
        Table.pct i.hpwl_um f.hpwl_um;
        Table.f1 i.rwl_um;
        Table.f1 f.rwl_um;
        Table.pct i.rwl_um f.rwl_um;
        Table.f3 i.wns_ns;
        Table.f3 f.wns_ns;
        Table.f3 i.power_mw;
        Table.f3 f.power_mw;
        Table.pct i.power_mw f.power_mw;
        Table.fi i.drvs;
        Table.fi f.drvs;
        Table.f1 c.opt_runtime_s;
      ]
    in
    Table.render
      ~header:
        [
          "design"; "#inst"; "alpha";
          "dM1:i"; "dM1:f"; "(d%)";
          "M1WL:i"; "M1WL:f"; "(d%)";
          "via12:i"; "via12:f"; "(d%)";
          "HPWL:i"; "HPWL:f"; "(d%)";
          "RWL:i"; "RWL:f"; "(d%)";
          "WNS:i"; "WNS:f";
          "P:i"; "P:f"; "(d%)";
          "DRV:i"; "DRV:f"; "rt(s)";
        ]
      ~rows:(List.map row comparisons)
end
